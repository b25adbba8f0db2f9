package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/state"
)

// putGraph is a fire-and-forget keyed writer into a partitioned dictionary;
// workIters adds per-item spin so tests can build real backlog.
func putGraph(workIters int) *core.Graph {
	g := core.NewGraph("elastic")
	se := g.AddSE("store", core.KindPartitioned, state.TypeKVMap, nil)
	g.AddTE("put", func(ctx core.Context, it core.Item) {
		h := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < workIters; i++ {
			h ^= h<<13 ^ h>>7
		}
		_ = h
		ctx.Store().(state.KV).Put(it.Key, it.Value.([]byte))
	}, &core.Access{SE: se, Mode: core.AccessByKey}, true)
	return g
}

// storeContents folds every partition of the named SE into one map,
// asserting along the way that each key physically lives at the partition
// the routing function names.
func storeContents(t *testing.T, r *Runtime, seName string) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	n := r.StateInstances(seName)
	for i := 0; i < n; i++ {
		st, err := r.StateStore(seName, i)
		if err != nil {
			t.Fatal(err)
		}
		st.(state.KV).ForEach(func(k uint64, v []byte) bool {
			if p := state.PartitionKey(k, n); p != i {
				t.Errorf("key %d on partition %d, want %d (of %d)", k, i, p, n)
			}
			if _, dup := out[k]; dup {
				t.Errorf("key %d present on two partitions", k)
			}
			out[k] = string(v)
			return true
		})
	}
	return out
}

// entryWatermark reports the highest externally-injected seq any put
// instance has processed — at quiescence, with the folds applied, every
// instance must hold the same external watermark.
func entryWatermark(r *Runtime, ts *teState) uint64 {
	var max uint64
	for _, ti := range ts.instances() {
		if s, ok := ti.dedup.Watermarks()[externalOrigin]; ok && s > max {
			max = s
		}
	}
	return max
}

// TestScaleDownRoundTripEquivalence: a run that scales 2→3→2 partitions
// mid-stream (with concurrent injectors and batch=64) must end with exactly
// the SE contents and external watermark of a flat 2-partition run.
func TestScaleDownRoundTripEquivalence(t *testing.T) {
	const items = 900
	value := func(k uint64) []byte { return []byte(fmt.Sprintf("v%d", k)) }

	run := func(scale bool) (map[uint64]string, uint64, int64) {
		r, err := Deploy(putGraph(0), Options{
			Partitions:       map[string]int{"store": 2},
			BatchSize:        64,
			Mode:             checkpoint.ModeAsync,
			Interval:         20 * time.Millisecond,
			DeltaCheckpoints: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()

		inject := func(from, to uint64) {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := from + uint64(w); k < to; k += 2 {
						if err := r.Inject("put", k, value(k)); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		}

		inject(0, items/3)
		if scale {
			if err := r.ScaleUp("put"); err != nil {
				t.Fatal(err)
			}
		}
		inject(items/3, 2*items/3)
		if scale {
			if err := r.ScaleDown("put"); err != nil {
				t.Fatal(err)
			}
			if got := r.StateInstances("store"); got != 2 {
				t.Fatalf("store instances after scale-down = %d", got)
			}
		}
		inject(2*items/3, items)
		if !r.Drain(testTimeout) {
			t.Fatal("drain")
		}
		ts, _ := r.te("put")
		return storeContents(t, r, "store"), entryWatermark(r, ts), r.Processed("put")
	}

	scaledState, scaledWM, scaledProcessed := run(true)
	flatState, flatWM, flatProcessed := run(false)

	if len(scaledState) != items || len(flatState) != items {
		t.Fatalf("state sizes: scaled %d flat %d, want %d", len(scaledState), len(flatState), items)
	}
	for k, v := range flatState {
		if scaledState[k] != v {
			t.Fatalf("key %d: scaled %q != flat %q", k, scaledState[k], v)
		}
	}
	if scaledWM != flatWM || scaledWM != items {
		t.Fatalf("external watermarks: scaled %d flat %d, want %d", scaledWM, flatWM, items)
	}
	// No item lost or duplicated: processed counts match the offered count.
	if scaledProcessed != items || flatProcessed != items {
		t.Fatalf("processed: scaled %d flat %d, want %d", scaledProcessed, flatProcessed, items)
	}
}

// TestScaleDownReplaysParkedKeyedItems: items parked behind the retiring
// partition's full queue are replayed into state, not dropped — the
// retiring worker drains its own backlog behind the ingress fence before
// the merge commits.
func TestScaleDownReplaysParkedKeyedItems(t *testing.T) {
	const items = 300
	r, err := Deploy(putGraph(2000), Options{
		Partitions: map[string]int{"store": 2},
		QueueLen:   1, // batches park almost immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for k := uint64(0); k < items; k++ {
		if err := r.Inject("put", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// Scale in while backlog (queued + parked) is still draining.
	if err := r.ScaleDown("put"); err != nil {
		t.Fatal(err)
	}
	if got := r.StateInstances("store"); got != 1 {
		t.Fatalf("store instances = %d, want 1", got)
	}
	if !r.Drain(testTimeout) {
		t.Fatal("drain")
	}
	got := storeContents(t, r, "store")
	if len(got) != items {
		t.Fatalf("keys after scale-in = %d, want %d", len(got), items)
	}
	if r.Processed("put") != items {
		t.Fatalf("processed = %d, want %d (items dropped or duplicated)", r.Processed("put"), items)
	}
}

// TestScaleDownThenRecover: the merge forces fresh base checkpoints, so a
// failure after scale-in restores the shrunk layout, not a stale pre-merge
// chain.
func TestScaleDownThenRecover(t *testing.T) {
	const items = 200
	r, err := Deploy(putGraph(0), Options{
		Partitions:       map[string]int{"store": 3},
		Mode:             checkpoint.ModeAsync,
		Interval:         time.Hour, // checkpoints only where the test forces them
		DeltaCheckpoints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for k := uint64(0); k < items; k++ {
		if err := r.Inject("put", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Drain(testTimeout) {
		t.Fatal("drain")
	}
	// Anchor pre-shrink chains so recovery has something stale to trip on.
	for i := 0; i < 3; i++ {
		if _, err := r.CheckpointNow("store", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ScaleDown("put"); err != nil {
		t.Fatal(err)
	}
	// ScaleDown itself anchored fresh bases; the retiree's chain is gone.
	if _, ok := r.Backup().Latest("store/2"); ok {
		t.Fatal("retired instance's backup chain not forgotten")
	}

	// Fail one surviving partition and recover it from the post-merge base.
	ss, _ := r.se("store")
	ss.mu.RLock()
	node := ss.insts[1].node.ID
	ss.mu.RUnlock()
	r.KillNode(node)
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	if !r.Drain(testTimeout) {
		t.Fatal("drain after recover")
	}
	got := storeContents(t, r, "store")
	if len(got) != items {
		t.Fatalf("keys after scale-in + recovery = %d, want %d", len(got), items)
	}
}

// TestScaleDownErrors pins the refusal cases: floor, partial SEs, dead
// instances.
func TestScaleDownErrors(t *testing.T) {
	r, err := Deploy(putGraph(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.ScaleDown("put"); err == nil {
		t.Error("scale-down below one instance should fail")
	}
	if err := r.ScaleDown("missing"); err == nil {
		t.Error("scale-down of unknown TE should fail")
	}

	p, err := Deploy(partialGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.ScaleUp("upd"); err != nil {
		t.Fatal(err)
	}
	if err := p.ScaleDown("upd"); err == nil {
		t.Error("scale-down of a partial SE should be refused")
	}

	// A dead accessing instance must block scale-in until recovery.
	d, err := Deploy(putGraph(0), Options{Partitions: map[string]int{"store": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ss, _ := d.se("store")
	ss.mu.RLock()
	node := ss.insts[1].node.ID
	ss.mu.RUnlock()
	d.KillNode(node)
	if err := d.ScaleDown("put"); err == nil {
		t.Error("scale-down with a dead accessing instance should fail")
	}
}

// TestScaleDownStateless retires a drained stateless instance and keeps
// serving.
func TestScaleDownStateless(t *testing.T) {
	r, err := Deploy(echoGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	if err := r.ScaleDown("echo"); err != nil {
		t.Fatal(err)
	}
	if got := r.Instances("echo"); got != 1 {
		t.Fatalf("instances = %d", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Call("echo", 0, []byte("x"), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// A later scale-up must resume, not restart, the retired index's seq
	// numbering so downstream dedup cannot drop its output.
	if err := r.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	ts, _ := r.te("echo")
	ts.mu.RLock()
	seq := ts.insts[1].seqCtr.Load()
	retired := ts.retiredSeqs[1]
	ts.mu.RUnlock()
	if seq < retired {
		t.Fatalf("re-expanded instance seq %d below retired watermark %d", seq, retired)
	}
}

// TestAutoScaleShrinksIdleTE: the controller retires instances of an idle
// TE back down to MinInstances.
func TestAutoScaleShrinksIdleTE(t *testing.T) {
	r, err := Deploy(echoGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < 2; i++ {
		if err := r.ScaleUp("echo"); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Instances("echo"); got != 3 {
		t.Fatalf("instances = %d", got)
	}
	events := make(chan int, 8)
	r.StartAutoScale(10*time.Millisecond, ScalePolicy{
		MinInstances: 1,
		ShrinkAfter:  2,
		Cooldown:     20 * time.Millisecond,
		OnScale:      func(te string, n int) { events <- n },
	})
	deadline := time.After(5 * time.Second)
	for r.Instances("echo") > 1 {
		select {
		case <-events:
		case <-deadline:
			t.Fatalf("auto-scaler never shrank to MinInstances; at %d", r.Instances("echo"))
		}
	}
	// The floor holds: no further shrink events fire.
	time.Sleep(100 * time.Millisecond)
	if got := r.Instances("echo"); got != 1 {
		t.Fatalf("instances after settle = %d, want 1", got)
	}
}

// TestAutoScaleHighWaterClampRegression: with QueueLen 1 the derived
// high-water default truncated to 0, so an idle watched TE scaled up on
// every post-cooldown tick ("parked >= 0" is always true).
func TestAutoScaleHighWaterClampRegression(t *testing.T) {
	r, err := Deploy(echoGraph(), Options{QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	scaled := make(chan string, 16)
	r.StartAutoScale(5*time.Millisecond, ScalePolicy{
		Cooldown: 10 * time.Millisecond,
		OnScale:  func(te string, n int) { scaled <- te },
	})
	select {
	case te := <-scaled:
		t.Fatalf("idle TE %q scaled with zero parked items", te)
	case <-time.After(150 * time.Millisecond):
	}
	if got := r.Instances("echo"); got != 1 {
		t.Fatalf("instances = %d, want 1", got)
	}
}

// TestAutoScaleSawtoothExactlyOnce drives the auto-scaler through a full
// grow-then-shrink cycle while items flow: a flood of blocking InjectBatch
// bursts parks behind a one-slot queue until the controller splits the
// partitioned TE, the trough lets it retire back to MinInstances, and
// across both rescales every injected key lands in the SE exactly once.
func TestAutoScaleSawtoothExactlyOnce(t *testing.T) {
	const (
		burst    = 64
		interval = 2 * time.Millisecond
	)
	r, err := Deploy(putGraph(20000), Options{
		Partitions:  map[string]int{"store": 1},
		QueueLen:    1, // every burst beyond the one in flight parks
		OverflowLen: 4 * burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	r.StartAutoScale(interval, ScalePolicy{
		TEs:            []string{"put"},
		QueueHighWater: burst / 4,
		ShrinkAfter:    4,
		MinInstances:   1,
		MaxInstances:   2,
		Cooldown:       4 * interval,
	})

	offered := 0
	inject := func() {
		batch := make([]InjectItem, burst)
		for i := range batch {
			k := uint64(offered + i)
			batch[i] = InjectItem{Key: k, Value: []byte(fmt.Sprintf("v%d", k))}
		}
		if err := r.InjectBatch("put", batch); err != nil {
			t.Fatal(err)
		}
		offered += burst
	}
	// Flood until the controller grows the TE, then keep items flowing
	// through the grown layout for a few more bursts.
	deadline := time.Now().Add(testTimeout)
	for r.Instances("put") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flood of %d items never scaled the TE up", offered)
		}
		inject()
	}
	for i := 0; i < 4; i++ {
		inject()
	}
	if !r.Drain(testTimeout) {
		t.Fatal("flood did not drain")
	}

	// Trough: idle until the controller retires the TE to the floor.
	deadline = time.Now().Add(testTimeout)
	for r.Instances("put") > 1 || r.StateInstances("store") > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle TE never shrank: %d instances", r.Instances("put"))
		}
		time.Sleep(interval)
	}

	if got := r.Processed("put"); got != int64(offered) {
		t.Fatalf("processed = %d, want %d (items lost or duplicated across rescale)", got, offered)
	}
	got := storeContents(t, r, "store")
	if len(got) != offered {
		t.Fatalf("store holds %d keys, want %d", len(got), offered)
	}
	for k := 0; k < offered; k++ {
		if v, want := got[uint64(k)], fmt.Sprintf("v%d", k); v != want {
			t.Fatalf("key %d = %q, want %q", k, v, want)
		}
	}
}

// TestRateMapPrunesDeadOrigins: the auto-scaler's per-origin counters drop
// entries for killed or replaced instances instead of growing without bound
// across recover/rescale cycles.
func TestRateMapPrunesDeadOrigins(t *testing.T) {
	r, err := Deploy(kvGraph(), Options{
		Mode:     checkpoint.ModeAsync,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < 20; k++ {
		if _, err := r.Call("put", k, []byte{byte(k)}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}

	liveOrigins := func() int {
		n := 0
		for _, ts := range r.tes {
			for _, ti := range ts.instances() {
				if !ti.killed.Load() {
					n++
				}
			}
		}
		return n
	}

	prev := map[uint64]int64{}
	prev[0xdeadbeef] = 42 // a long-gone origin must be pruned on any scan
	r.scanTEs(prev)
	if len(prev) != liveOrigins() {
		t.Fatalf("scan kept %d entries, want %d live origins", len(prev), liveOrigins())
	}
	if _, stale := prev[0xdeadbeef]; stale {
		t.Fatal("stale origin survived the scan")
	}

	// A recover-with-rescale cycle replaces every instance origin set; the
	// map must keep tracking the live set exactly.
	ss, _ := r.se("store")
	ss.mu.RLock()
	node := ss.insts[0].node.ID
	ss.mu.RUnlock()
	r.KillNode(node)
	before := liveOrigins()
	r.scanTEs(prev) // scan between kill and recover drops the dead origins
	if len(prev) != before {
		t.Fatalf("scan kept %d entries, want %d live origins after kill", len(prev), before)
	}
	if _, err := r.Recover("store", 2); err != nil {
		t.Fatal(err)
	}
	r.scanTEs(prev)
	if len(prev) != liveOrigins() {
		t.Fatalf("scan kept %d entries, want %d live origins after rescale", len(prev), liveOrigins())
	}
}

// TestScaleDownTimesOutUnderSustainedLoad: a graph that cannot quiesce
// makes ScaleDown fail with ErrNotQuiesced instead of stalling forever.
func TestScaleDownTimesOutUnderSustainedLoad(t *testing.T) {
	// A self-looping TE never drains once seeded.
	g := core.NewGraph("loop")
	g.AddTE("loop", func(ctx core.Context, it core.Item) {
		ctx.Emit(0, it.Key, it.Value)
	}, nil, true)
	g.Connect(0, 0, core.DispatchOneToAny)
	r, err := Deploy(g, Options{ScaleDrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.ScaleUp("loop"); err != nil {
		t.Fatal(err)
	}
	if err := r.Inject("loop", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ScaleDown("loop"); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("scale-down under sustained load = %v, want ErrNotQuiesced", err)
	}
	if got := r.Instances("loop"); got != 2 {
		t.Fatalf("failed scale-down changed instance count to %d", got)
	}
}
