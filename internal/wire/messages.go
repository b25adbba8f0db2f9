package wire

import "repro/internal/core"

// Message type bytes. Requests flow coordinator -> worker; each has one
// reply type the worker answers with (application failures come back as
// cluster error replies instead). The zero byte is deliberately unassigned
// so an empty or zeroed buffer never parses as a valid message.
const (
	MsgDeploy       byte = 0x01 // Deploy        -> MsgDeployAck
	MsgDeployAck    byte = 0x02 // DeployAck
	MsgInject       byte = 0x03 // Inject        -> MsgInjectAck
	MsgInjectAck    byte = 0x04 // InjectAck
	MsgCall         byte = 0x05 // Call          -> MsgCallReply or MsgCallTimeout
	MsgCallReply    byte = 0x06 // CallReply
	MsgHeartbeat    byte = 0x07 // Heartbeat     -> MsgHeartbeatAck
	MsgHeartbeatAck byte = 0x08 // HeartbeatAck
	// 0x09-0x0c are retired and must never be reassigned: a peer that still
	// sends them has to fail as ErrUnknownType, not misparse.
	MsgDumpReq  byte = 0x0d // DumpReq       -> MsgDump
	MsgDump     byte = 0x0e // Dump
	MsgStatsReq byte = 0x0f // StatsReq      -> MsgStats
	MsgStats    byte = 0x10 // Stats
	MsgDrainReq byte = 0x11 // DrainReq      -> MsgDrainAck
	MsgDrainAck byte = 0x12 // DrainAck
	MsgStop     byte = 0x13 // Stop          -> MsgStopAck
	MsgStopAck  byte = 0x14 // StopAck
	// Worker-to-worker data plane (cross-worker dataflow edges).
	MsgRemoteEmit    byte = 0x15 // RemoteEmit    -> MsgRemoteEmitAck
	MsgRemoteEmitAck byte = 0x16 // RemoteEmitAck
	MsgPeers         byte = 0x17 // Peers         -> MsgPeersAck
	MsgPeersAck      byte = 0x18 // PeersAck
	MsgEdgeTrim      byte = 0x19 // EdgeTrim      -> MsgEdgeTrimAck
	MsgEdgeTrimAck   byte = 0x1a // EdgeTrimAck
	// Snapshot transfer (see wire/snapstream.go).
	MsgSnapBegin       byte = 0x1b // SnapBegin     -> MsgSnapBeginAck
	MsgSnapBeginAck    byte = 0x1c // SnapBeginAck
	MsgSnapNext        byte = 0x1d // SnapNext      -> MsgSnapChunk or MsgSnapEnd
	MsgSnapChunk       byte = 0x1e // SnapChunk
	MsgSnapEnd         byte = 0x1f // SnapEnd
	MsgRestoreBegin    byte = 0x20 // RestoreBegin  -> MsgRestoreBeginAck
	MsgRestoreBeginAck byte = 0x21 // RestoreBeginAck
	MsgRestoreChunk    byte = 0x22 // RestoreChunk  -> MsgRestoreChunkAck
	MsgRestoreChunkAck byte = 0x23 // RestoreChunkAck
	MsgRestoreEnd      byte = 0x24 // RestoreEnd    -> MsgRestoreEndAck
	MsgRestoreEndAck   byte = 0x25 // RestoreEndAck
	MsgCallTimeout     byte = 0x26 // CallTimeout
)

// msgNames is the registry of known message types; Decode rejects a type
// byte absent from it with ErrUnknownType.
var msgNames = map[byte]string{
	MsgDeploy:        "Deploy",
	MsgDeployAck:     "DeployAck",
	MsgInject:        "Inject",
	MsgInjectAck:     "InjectAck",
	MsgCall:          "Call",
	MsgCallReply:     "CallReply",
	MsgHeartbeat:     "Heartbeat",
	MsgHeartbeatAck:  "HeartbeatAck",
	MsgDumpReq:       "DumpReq",
	MsgDump:          "Dump",
	MsgStatsReq:      "StatsReq",
	MsgStats:         "Stats",
	MsgDrainReq:      "DrainReq",
	MsgDrainAck:      "DrainAck",
	MsgStop:          "Stop",
	MsgStopAck:       "StopAck",
	MsgRemoteEmit:    "RemoteEmit",
	MsgRemoteEmitAck: "RemoteEmitAck",
	MsgPeers:         "Peers",
	MsgPeersAck:      "PeersAck",
	MsgEdgeTrim:      "EdgeTrim",
	MsgEdgeTrimAck:   "EdgeTrimAck",

	MsgSnapBegin:       "SnapBegin",
	MsgSnapBeginAck:    "SnapBeginAck",
	MsgSnapNext:        "SnapNext",
	MsgSnapChunk:       "SnapChunk",
	MsgSnapEnd:         "SnapEnd",
	MsgRestoreBegin:    "RestoreBegin",
	MsgRestoreBeginAck: "RestoreBeginAck",
	MsgRestoreChunk:    "RestoreChunk",
	MsgRestoreChunkAck: "RestoreChunkAck",
	MsgRestoreEnd:      "RestoreEnd",
	MsgRestoreEndAck:   "RestoreEndAck",
	MsgCallTimeout:     "CallTimeout",
}

// Shard places a contiguous slice [First, First+Count) of a TE's or SE's
// Total global instances on one worker. Global instance identities (origin
// IDs, partition routing, edge destinations) are computed against Total so
// every worker agrees on them regardless of placement.
type Shard struct {
	First int
	Count int
	Total int
}

// Deploy instructs a worker to build and start its local slice of the named
// graph. Task functions cannot cross the wire, so both binaries link the
// application packages and the graph travels by registry name (see
// runtime.RegisterGraph).
type Deploy struct {
	Graph string
	// Runtime tuning, mirroring the matching runtime.Options fields.
	QueueLen    int
	OverflowLen int
	BatchSize   int
	// Sharded placement across a worker set of one or more: this worker's
	// index, the set size, the global shard of every TE and SE assigned to
	// this worker, and every worker's data address so cut dataflow edges
	// can be dialed directly.
	Worker   int
	Workers  int
	TEShards map[string]Shard
	SEShards map[string]Shard
	Peers    []string
	// AwaitRestore seals the worker against peer RemoteEmit traffic until a
	// restore stream completes (RestoreEnd), so replayed frames cannot land
	// on pre-restore state.
	AwaitRestore bool
}

// DeployAck confirms a deployment.
type DeployAck struct {
	Graph string
	TEs   int
	SEs   int
}

// Inject delivers externally injected items to one entry task. Items carry
// coordinator-assigned (Origin, Seq) timestamps: the coordinator owns the
// external seq space so dedup watermarks and replay logs stay coherent
// across worker restarts, and the worker must never re-stamp them.
type Inject struct {
	Task  string
	Items []core.Item
}

// InjectAck confirms the items were admitted and enqueued (not processed).
type InjectAck struct {
	Accepted int
}

// Call is a request/reply injection: the worker waits for the dataflow's
// Reply and sends it back. The item's ReqID is assigned worker-locally;
// the coordinator leaves it zero.
type Call struct {
	Task      string
	Item      core.Item
	TimeoutMs int64
}

// CallReply carries the dataflow's reply value.
type CallReply struct {
	Value any
}

// CallTimeout answers a Call whose item the worker enqueued but whose reply
// did not arrive within TimeoutMs. The item may still be applied, so unlike
// an error reply it obliges the coordinator to log the item for replay.
type CallTimeout struct{}

// Heartbeat probes liveness on the control link. Seq echoes back so an ack
// delayed across a probe boundary cannot be credited to the wrong probe.
type Heartbeat struct {
	Seq uint64
}

// HeartbeatAck answers a probe with a load hint.
type HeartbeatAck struct {
	Seq    uint64
	Queued int64
}

// DumpReq asks for the full contents of a dictionary SE.
type DumpReq struct {
	SE string
}

// KVEntry is one dictionary entry in a dump.
type KVEntry struct {
	Key   uint64
	Value []byte
}

// Dump returns a dictionary SE's contents across the worker's partitions.
type Dump struct {
	Entries []KVEntry
}

// StatsReq asks for processing counters and watermarks.
type StatsReq struct{}

// Stats reports per-task processed counts and per-task dedup watermarks
// folded (max per origin) across the worker's instances.
type Stats struct {
	Processed  map[string]int64
	Watermarks map[string]map[uint64]uint64
}

// DrainReq asks the worker to wait until its queues quiesce.
type DrainReq struct {
	TimeoutMs int64
}

// DrainAck reports whether the worker quiesced within the timeout.
// Processed totals items processed across all TEs: the coordinator drains in
// rounds and only believes a quiesced cluster once two consecutive rounds
// agree on every worker's total, so items acked at a sender but not yet
// processed at the receiver cannot slip through a drain barrier.
type DrainAck struct {
	Quiesced  bool
	Processed int64
}

// RemoteEmit carries one batch of dataflow items across a cut edge, from
// the emitting worker straight to the worker hosting global destination
// instance Inst of graph edge Edge (index into Graph.Edges). Items keep
// their sender-assigned (Origin, Seq); the receiver's dedup makes re-sends
// after an ambiguous ack idempotent.
type RemoteEmit struct {
	Edge  int
	Inst  int
	Items []core.Item
}

// RemoteEmitAck confirms the items were enqueued at the destination. A
// backpressured or still-restoring destination answers with a cluster
// error reply instead and the sender retries — never blocks — so
// cross-worker cycles cannot distributed-deadlock.
type RemoteEmitAck struct {
	Accepted int
}

// Peers announces a worker's (possibly new) data address after recovery.
// Receivers drop their cached transport to that worker and rebuild the
// in-flight send queue from their edge logs, which replays everything the
// restarted worker may have lost.
type Peers struct {
	Worker int
	Addr   string
}

// PeersAck confirms the peer table update.
type PeersAck struct{}

// EdgeTrimEntry carries one destination instance's dedup watermarks so
// senders can trim their (Edge, Inst) send log: an item whose seq the
// receiver has snapshotted past can never be replayed again.
type EdgeTrimEntry struct {
	Edge       int
	Inst       int
	Watermarks map[uint64]uint64
}

// EdgeTrim distributes post-checkpoint trim points: per-destination trims
// for cross-worker edge send logs.
type EdgeTrim struct {
	Trims []EdgeTrimEntry
}

// EdgeTrimAck confirms the trim.
type EdgeTrimAck struct{}

// Stop shuts the worker's runtime down.
type Stop struct{}

// StopAck confirms shutdown; the worker process exits after sending it.
type StopAck struct{}
