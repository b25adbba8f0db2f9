package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire"
)

// The gatechain graph is the two-stage counter with a gate in front of the
// increment: while the gate is shut, every item of partition 0 (global inc
// instance 0, always on worker 0) blocks before it is counted. With
// BatchSize 1 the held instance is inside exactly one item, so a checkpoint
// cut taken as the gate opens sees a known local backlog: every other
// partition-0 item, queued behind it. gatefork is the same graph with two
// edges from ingest into inc, taken in turn, so the backlog's seqs
// interleave across two logs.
var gate struct {
	mu sync.Mutex
	ch chan struct{}
}

func init() {
	RegisterGraph("gatechain", func() *core.Graph { return gatedCounterGraph("gatechain", 1) })
	RegisterGraph("gatefork", func() *core.Graph { return gatedCounterGraph("gatefork", 2) })
}

func gatedCounterGraph(name string, edges int) *core.Graph {
	g := core.NewGraph(name)
	counts := g.AddSE("counts", core.KindPartitioned, state.TypeKVMap, nil)
	ingest := g.AddTE("ingest", func(ctx core.Context, it core.Item) {
		ctx.Emit(int(it.Seq%uint64(edges)), it.Key, it.Value)
	}, nil, true)
	inc := g.AddTE("inc", func(ctx core.Context, it core.Item) {
		if state.PartitionKey(it.Key, 2) == 0 {
			gate.mu.Lock()
			ch := gate.ch
			gate.mu.Unlock()
			<-ch
		}
		kvm := ctx.Store().(state.KV)
		var n uint64
		if v, ok := kvm.Get(it.Key); ok {
			n = binary.BigEndian.Uint64(v)
		}
		kvm.Put(it.Key, binary.BigEndian.AppendUint64(nil, n+1))
	}, &core.Access{SE: counts, Mode: core.AccessByKey}, false)
	for range edges {
		g.Connect(ingest, inc, core.DispatchPartitioned)
	}
	return g
}

const (
	gateKeys  = 20
	gateItems = 200 // per phase
)

// gateRig is a gated graph deployed over in-process workers that reach
// each other through one registry. Every incarnation listens on a fresh
// address.
type gateRig struct {
	t       *testing.T
	reg     *handlerRegistry
	workers []*Worker
	eps     []WorkerEndpoint
	coord   *Coordinator
	failed  chan int
	open    func()
	spawned int
}

func newGateRig(t *testing.T, graph string, workers int) *gateRig {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	gate.mu.Lock()
	gate.ch = ch
	gate.mu.Unlock()
	rig := &gateRig{t: t, reg: &handlerRegistry{m: map[string]cluster.Handler{}}, failed: make(chan int, 4),
		open: func() { once.Do(func() { close(ch) }) }}
	rig.workers = make([]*Worker, workers)
	rig.eps = make([]WorkerEndpoint, workers)
	for w := range rig.eps {
		rig.spawn(w)
	}
	coord, err := NewCoordinator(graph, rig.eps, CoordOptions{
		Partitions:        map[string]int{"counts": 2},
		BatchSize:         1,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		OnFailure:         func(w int) { rig.failed <- w },
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	rig.coord = coord
	return rig
}

func (rig *gateRig) spawn(w int) WorkerEndpoint {
	wk := NewWorker()
	// A worker stops only once its held instance is let go.
	rig.t.Cleanup(func() { rig.open(); wk.Close() })
	wk.SetDialer(rig.reg.dial)
	rig.spawned++
	addr := fmt.Sprintf("w%d.%d", w, rig.spawned)
	rig.reg.set(addr, wk.Handler())
	rig.workers[w] = wk
	rig.eps[w] = WorkerEndpoint{Addr: addr, Data: cluster.Local(wk.Handler(), 0), Control: cluster.Local(wk.Handler(), 0)}
	return rig.eps[w]
}

// inject offers one phase: item i carries key i%gateKeys.
func (rig *gateRig) inject() {
	rig.t.Helper()
	for i := 0; i < gateItems; i++ {
		if err := rig.coord.Inject("ingest", uint64(i%gateKeys), nil); err != nil {
			rig.t.Fatalf("inject %d: %v", i, err)
		}
	}
}

// waitProcessed polls until the task has processed n items.
func (rig *gateRig) waitProcessed(task string, n int64) {
	rig.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := rig.coord.Processed(task)
		if err != nil {
			rig.t.Fatalf("processed %s: %v", task, err)
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			rig.t.Fatalf("%s processed %d items, want %d", task, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// cutBehindGate injects one phase with the gate shut, waits until ingest
// has emitted all of it and the ungated partition has counted its share,
// then checkpoints. The gate opens only once the cut's pause is waiting on
// the held instance's node, so that instance finishes the one item it
// holds and the cut sees everything queued behind it.
func (rig *gateRig) cutBehindGate() {
	t := rig.t
	t.Helper()
	rig.inject()
	var ungated int64
	for i := 0; i < gateItems; i++ {
		if state.PartitionKey(uint64(i%gateKeys), 2) != 0 {
			ungated++
		}
	}
	rig.waitProcessed("ingest", gateItems)
	rig.waitProcessed("inc", ungated)

	rt, err := rig.workers[0].runtime()
	if err != nil {
		t.Fatal(err)
	}
	held, err := rt.teInstanceAt("inc", 0)
	if err != nil {
		t.Fatal(err)
	}
	pause := rt.pauseFor(held.node)
	done := make(chan error, 1)
	go func() { done <- rig.coord.Checkpoint() }()
	deadline := time.Now().Add(10 * time.Second)
	for pause.TryRLock() {
		pause.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint never paused the held instance")
		}
		time.Sleep(100 * time.Microsecond)
	}
	rig.open()
	if err := <-done; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// retainedMeta decodes worker w's retained metadata parts: everything but
// the SE chunks that the last checkpoint pulled over its control link.
func (rig *gateRig) retainedMeta(w int) []wire.SnapPart {
	rig.t.Helper()
	c := rig.coord
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	var parts []wire.SnapPart
	for _, rec := range c.workers[w].snap.meta {
		p, err := decodeSnapRecord(rec)
		if err != nil {
			rig.t.Fatalf("retained record: %v", err)
		}
		parts = append(parts, p)
	}
	return parts
}

// kill crashes worker w and waits for the failure detector.
func (rig *gateRig) kill(w int) {
	rig.t.Helper()
	rig.workers[w].Close()
	rig.eps[w].Data.Close()
	rig.eps[w].Control.Close()
	select {
	case got := <-rig.failed:
		if got != w {
			rig.t.Fatalf("failure detector blamed worker %d, want %d", got, w)
		}
	case <-time.After(5 * time.Second):
		rig.t.Fatal("failure detector never fired")
	}
}

// verify drains and requires every key counted once per phase item.
func (rig *gateRig) verify(phases int) {
	t := rig.t
	t.Helper()
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("deployment did not quiesce")
	}
	dump, err := rig.coord.DumpKV("counts")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	want := uint64(phases * gateItems / gateKeys)
	for k := uint64(0); k < gateKeys; k++ {
		var n uint64
		if len(dump[k]) == 8 {
			n = binary.BigEndian.Uint64(dump[k])
		}
		if n != want {
			t.Errorf("key %d (partition %d): count %d, want %d", k, state.PartitionKey(k, 2), n, want)
		}
	}
}

// backlogRestore checkpoints behind the gate, runs a second phase that
// only the coordinator's replay log covers, kills worker 0 and recovers
// it. The restore must re-deliver the cut's backlog ahead of the replayed
// phase, or the held partition loses every backlog increment.
func backlogRestore(t *testing.T, graph string, workers int) {
	rig := newGateRig(t, graph, workers)
	rig.cutBehindGate()
	rig.inject()
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("did not quiesce before the kill")
	}
	rig.kill(0)
	if err := rig.coord.RecoverWorker(0, rig.spawn(0)); err != nil {
		t.Fatalf("RecoverWorker: %v", err)
	}
	rig.verify(2)
}

// TestBacklogRestoreUpstreamWorker kills the worker that hosts ingest and
// the held partition of a two-worker deployment.
func TestBacklogRestoreUpstreamWorker(t *testing.T) { backlogRestore(t, "gatechain", 2) }

// TestBacklogRestoreSingleWorker is the same schedule on one worker, which
// has no cross-worker edge at all.
func TestBacklogRestoreSingleWorker(t *testing.T) { backlogRestore(t, "gatechain", 1) }

// TestBacklogRestoreTwoEdges restores a backlog split over two edges into
// one TE: re-delivered edge by edge, the second log's lower seqs would
// land behind the first's higher ones and be dropped as duplicates.
func TestBacklogRestoreTwoEdges(t *testing.T) { backlogRestore(t, "gatefork", 2) }

// TestBacklogCutShipsOnlyLocalBacklog pins what a checkpoint ships of the
// out-edge logs: behind the gate, exactly the held partition's queued
// items and nothing bound for the other worker; after a drain, nothing.
func TestBacklogCutShipsOnlyLocalBacklog(t *testing.T) {
	rig := newGateRig(t, "gatechain", 2)
	rig.cutBehindGate()

	// Ingest numbers its emissions 1, 2, ... in injection order. The held
	// instance counted the first partition-0 item; the backlog is the rest.
	var first uint64
	want := map[uint64]uint64{} // backlog seq -> key
	remoteAbove := 0            // partition-1 items emitted after the held one
	for i := 0; i < gateItems; i++ {
		seq, key := uint64(i+1), uint64(i%gateKeys)
		switch {
		case state.PartitionKey(key, 2) != 0:
			if first != 0 {
				remoteAbove++
			}
		case first == 0:
			first = seq
		default:
			want[seq] = key
		}
	}
	got := map[uint64]uint64{} // shipped seq -> key
	for _, p := range rig.retainedMeta(0) {
		switch {
		case p.Kind == wire.PartTE && p.Name == "inc" && p.Index == 0:
			if len(p.Watermarks) != 1 {
				t.Fatalf("held instance watermarks %v, want ingest's alone", p.Watermarks)
			}
			for _, s := range p.Watermarks {
				if s != first {
					t.Fatalf("held instance cut at seq %d, want %d", s, first)
				}
			}
		case p.Kind == wire.PartTEBuf:
			items, err := wire.DecodeItems(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				got[it.Seq] = it.Key
			}
		}
	}
	if remoteAbove == 0 {
		t.Fatal("no remote-bound item above the held watermark; the test cannot tell the filter works")
	}
	if len(got) != len(want) {
		t.Fatalf("shipped %d backlog items, want the %d queued at the held instance", len(got), len(want))
	}
	for seq, key := range want {
		if k, ok := got[seq]; !ok || k != key {
			t.Fatalf("backlog seq %d (key %d) shipped as %d, %v", seq, key, k, ok)
		}
	}

	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("did not quiesce")
	}
	if err := rig.coord.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for w := range rig.workers {
		for _, p := range rig.retainedMeta(w) {
			if p.Kind == wire.PartTEBuf {
				t.Fatalf("worker %d shipped a %d-byte out-edge log part after a drain", w, len(p.Data))
			}
		}
	}
}

// TestCutEdgeLogShedsProcessedItems: between snapshot cuts, the out-edge
// log of a cut edge keeps only what its local destination has not yet
// processed, not every item since the last cut.
func TestCutEdgeLogShedsProcessedItems(t *testing.T) {
	rig := newGateRig(t, "gatechain", 2)
	rig.open()
	rig.inject()
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("did not quiesce")
	}
	// One more emission flushes the edge once everything before it has been
	// processed: the log sheds every item up to the destination's last.
	if err := rig.coord.Inject("ingest", 0, nil); err != nil {
		t.Fatal(err)
	}
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("did not quiesce")
	}
	if n := rig.workers[0].OutBufItems(); n >= gateKeys {
		t.Fatalf("ingest's out-edge log holds %d of %d items its destinations processed", n, gateItems+1)
	}
}
