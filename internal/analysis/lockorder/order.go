package lockorder

// Annotation is one //sdg:lockorder (or //sdg:locked) annotation expected
// to exist in internal/runtime. RuntimeOrder below is the canonical copy
// of the runtime's declared lock hierarchy: TestAnnotationDrift parses the
// runtime sources and fails if the annotations and this table diverge in
// either direction, so renaming or deleting an annotated mutex without
// updating the declared order is a test failure, not silent config rot.
type Annotation struct {
	File  string // base name of the file holding the annotation
	Kind  string // "field", "returns", or "locked"
	Owner string // "Type.field" for fields, "func Name" otherwise
	Class string
	Rank  int // -1 for kinds that carry no rank
}

// RuntimeOrder mirrors every lock annotation in internal/runtime. The rank
// order encodes the documented hierarchy: reshape serialisation first,
// then the injection fence, the checkpoint gate, per-node pause locks, SE
// then TE state (the PR 5 repartition order), the coordinator's injection
// fence before its per-worker send locks and those before its per-worker
// endpoint locks, and the remote-edge net lock before per-peer locks (PR 8).
var RuntimeOrder = []Annotation{
	{File: "runtime.go", Kind: "field", Owner: "Runtime.scaleMu", Class: "scale", Rank: 10},
	{File: "runtime.go", Kind: "field", Owner: "teState.injMu", Class: "inject", Rank: 20},
	{File: "runtime.go", Kind: "field", Owner: "seState.ckptGate", Class: "ckptgate", Rank: 30},
	{File: "worker.go", Kind: "field", Owner: "Worker.snapMu", Class: "snapstream", Rank: 35},
	{File: "runtime.go", Kind: "field", Owner: "Runtime.pauseMu", Class: "pause", Rank: 40},
	{File: "runtime.go", Kind: "field", Owner: "seState.mu", Class: "sstate", Rank: 50},
	{File: "runtime.go", Kind: "field", Owner: "teState.mu", Class: "testate", Rank: 60},
	{File: "coordinator.go", Kind: "field", Owner: "Coordinator.injMu", Class: "coordinject", Rank: 65},
	{File: "coordinator.go", Kind: "field", Owner: "coordWorker.sendMu", Class: "coordsend", Rank: 67},
	{File: "coordinator.go", Kind: "field", Owner: "coordWorker.mu", Class: "coordworker", Rank: 70},
	{File: "remoteedge.go", Kind: "field", Owner: "remoteNet.mu", Class: "netmu", Rank: 80},
	{File: "remoteedge.go", Kind: "field", Owner: "peerConn.mu", Class: "peermu", Rank: 90},
	{File: "runtime.go", Kind: "field", Owner: "Runtime.pmu", Class: "pausemap", Rank: 95},
	{File: "runtime.go", Kind: "returns", Owner: "func pauseFor", Class: "pause", Rank: -1},
	{File: "remoteedge.go", Kind: "locked", Owner: "func peerQueue", Class: "netmu", Rank: -1},
	{File: "remoteedge.go", Kind: "locked", Owner: "func resetPeerLocked", Class: "netmu", Rank: -1},
}
