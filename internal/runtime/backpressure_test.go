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

// cycleGraph builds a two-TE iterative loop: the entry TE ping re-emits any
// item whose hop count is below limit, pong always bounces it back
// incremented. An injected item with value 0 therefore makes limit/2+1
// visits to ping and limit/2 to pong (limit must be even) — deterministic
// counters, independent of scheduling.
func cycleGraph(limit int) *core.Graph {
	g := core.NewGraph("cycle")
	ping := g.AddTE("ping", func(ctx core.Context, it core.Item) {
		if v := it.Value.(int); v < limit {
			ctx.Emit(0, it.Key, v+1)
		}
	}, nil, true)
	pong := g.AddTE("pong", func(ctx core.Context, it core.Item) {
		ctx.Emit(0, it.Key, it.Value.(int)+1)
	}, nil, false)
	g.Connect(ping, pong, core.DispatchOneToAny)
	g.Connect(pong, ping, core.DispatchOneToAny)
	return g
}

// TestCyclicFloodNoDeadlock is the tentpole regression: before overflow
// parking, enqueue blocked forever on a full destination queue, so a cyclic
// topology with tiny queues wedged as soon as both instances' queues filled
// — ping's worker blocked sending to pong while pong's worker blocked
// sending to ping. With lossless parking no worker ever blocks on another
// worker's queue, so the flood must fully drain and every hop must run
// exactly once.
func TestCyclicFloodNoDeadlock(t *testing.T) {
	const injected, limit = 128, 64
	r, err := Deploy(cycleGraph(limit), Options{QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < injected; k++ {
		if err := r.Inject("ping", k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Drain(60 * time.Second) {
		t.Fatal("cyclic flood did not drain (dispatch deadlock?)")
	}
	if got, want := r.Processed("ping"), int64(injected*(limit/2+1)); got != want {
		t.Fatalf("ping processed %d items, want %d", got, want)
	}
	if got, want := r.Processed("pong"), int64(injected*limit/2); got != want {
		t.Fatalf("pong processed %d items, want %d", got, want)
	}
}

// keyedEntryGraph: a keyed entry writing straight into a partitioned
// dictionary — the minimal shape for admission and entry-routing tests.
func keyedEntryGraph() *core.Graph {
	g := core.NewGraph("keyed-entry")
	se := g.AddSE("store", core.KindPartitioned, state.TypeKVMap, nil)
	g.AddTE("put", func(ctx core.Context, it core.Item) {
		ctx.Store().(state.KV).Put(it.Key, it.Value.([]byte))
	}, &core.Access{SE: se, Mode: core.AccessByKey}, true)
	return g
}

// TestInjectBatchEquivalence drives the same item stream through per-item
// Inject and chunked InjectBatch and requires identical SE contents and
// per-instance dedup watermarks: batching the entry path must change
// admission and logging cost, never routing or dispatch semantics.
func TestInjectBatchEquivalence(t *testing.T) {
	const parts, injected, chunk = 3, 300, 64
	type snapshot struct {
		contents   []map[uint64]string
		watermarks []map[uint64]uint64
	}
	run := func(batched bool) snapshot {
		r, err := Deploy(keyedEntryGraph(), Options{
			Partitions: map[string]int{"store": parts},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		if batched {
			for start := 0; start < injected; start += chunk {
				end := start + chunk
				if end > injected {
					end = injected
				}
				items := make([]InjectItem, 0, end-start)
				for k := start; k < end; k++ {
					items = append(items, InjectItem{Key: uint64(k), Value: []byte(fmt.Sprintf("v%d", k))})
				}
				if err := r.InjectBatch("put", items); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for k := 0; k < injected; k++ {
				if err := r.Inject("put", uint64(k), []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !r.Drain(testTimeout) {
			t.Fatalf("batched=%v did not drain", batched)
		}
		var snap snapshot
		for i := 0; i < parts; i++ {
			st, err := r.StateStore("store", i)
			if err != nil {
				t.Fatal(err)
			}
			m := map[uint64]string{}
			st.(*state.KVMap).ForEach(func(k uint64, v []byte) bool {
				m[k] = string(v)
				return true
			})
			snap.contents = append(snap.contents, m)
		}
		ts, err := r.te("put")
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range ts.instances() {
			snap.watermarks = append(snap.watermarks, ti.dedup.Watermarks())
		}
		return snap
	}

	a, b := run(false), run(true)
	for i := 0; i < parts; i++ {
		if len(a.contents[i]) != len(b.contents[i]) {
			t.Fatalf("partition %d: per-item has %d keys, batched has %d",
				i, len(a.contents[i]), len(b.contents[i]))
		}
		for k, v := range a.contents[i] {
			if b.contents[i][k] != v {
				t.Fatalf("partition %d key %d: per-item %q, batched %q", i, k, v, b.contents[i][k])
			}
		}
	}
	if len(a.watermarks) != len(b.watermarks) {
		t.Fatalf("watermark instance counts differ: %d vs %d", len(a.watermarks), len(b.watermarks))
	}
	for i := range a.watermarks {
		if len(a.watermarks[i]) != len(b.watermarks[i]) {
			t.Fatalf("instance %d watermark origins differ", i)
		}
		for o, s := range a.watermarks[i] {
			if b.watermarks[i][o] != s {
				t.Fatalf("instance %d origin %d: watermark %d vs %d", i, o, s, b.watermarks[i][o])
			}
		}
	}
}

// gateGraph: an entry TE that blocks in its function until the gate closes,
// freezing the pipeline with deterministic backlog accounting (the worker
// holds one in-flight item; nothing drains until release).
func gateGraph(gate chan struct{}) *core.Graph {
	g := core.NewGraph("gate")
	g.AddTE("gate", func(ctx core.Context, it core.Item) {
		<-gate
	}, nil, true)
	return g
}

// teStats returns the Stats entry of the named TE.
func teStats(r *Runtime, name string) TEStats {
	for _, te := range r.Stats().TEs {
		if te.Name == name {
			return te
		}
	}
	return TEStats{}
}

// TestShedPolicyReturnsErrOverloaded pins the Shed admission contract: with
// the pipeline frozen, exactly OverflowLen items are admitted (backlog
// bound), every further offer fails fast with the typed error, the shed
// counter matches the rejections, and the admitted items all process after
// release — admission never loses what it accepted.
func TestShedPolicyReturnsErrOverloaded(t *testing.T) {
	const capacity, offered = 8, 30
	gate := make(chan struct{})
	r, err := Deploy(gateGraph(gate), Options{
		QueueLen:     1,
		OverflowLen:  capacity,
		InjectPolicy: InjectShed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	accepted, shed := 0, 0
	for i := 0; i < offered; i++ {
		err := r.Inject("gate", uint64(i), nil)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("inject %d: unexpected error %v", i, err)
		}
	}
	if accepted != capacity {
		t.Fatalf("accepted %d items, want exactly OverflowLen=%d", accepted, capacity)
	}
	if shed != offered-capacity {
		t.Fatalf("shed %d items, want %d", shed, offered-capacity)
	}
	if got := teStats(r, "gate").Shed; got != int64(shed) {
		t.Fatalf("Shed counter = %d, want %d", got, shed)
	}
	// A batch over a full backlog sheds whole, all-or-nothing.
	if err := r.InjectBatch("gate", make([]InjectItem, 5)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("InjectBatch over capacity: got %v, want ErrOverloaded", err)
	}
	st := teStats(r, "gate")
	if st.Shed != int64(shed+5) {
		t.Fatalf("Shed counter after batch = %d, want %d", st.Shed, shed+5)
	}
	if st.Queued != capacity {
		t.Fatalf("stats queued = %d, want %d", st.Queued, capacity)
	}

	close(gate)
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after release")
	}
	if got := r.Processed("gate"); got != int64(capacity) {
		t.Fatalf("processed %d, want %d (admitted items must not be lost)", got, capacity)
	}
}

// TestBlockDeadlineShedsTyped: the Block policy with a deadline converts an
// overlong admission wait into the same typed rejection, and the admission
// latency distribution records the wait.
func TestBlockDeadlineShedsTyped(t *testing.T) {
	const capacity = 4
	gate := make(chan struct{})
	r, err := Deploy(gateGraph(gate), Options{
		QueueLen:       1,
		OverflowLen:    capacity,
		InjectPolicy:   InjectBlock,
		InjectDeadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < capacity; i++ {
		if err := r.Inject("gate", uint64(i), nil); err != nil {
			t.Fatalf("inject %d within capacity: %v", i, err)
		}
	}
	if err := r.Inject("gate", 99, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("inject over capacity: got %v, want ErrOverloaded after deadline", err)
	}
	if got := teStats(r, "gate").Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if r.AdmitLatency.Count() == 0 {
		t.Fatal("admission latency distribution recorded nothing")
	}
	if r.AdmitLatency.Max() == 0 {
		t.Fatal("deadline wait must record a nonzero admission latency")
	}
	close(gate)
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after release")
	}
}

// TestEntryRoutingFallsBackToLiveInstance: load-balanced entry dispatch
// must skip killed instances instead of dropping their share of the stream
// on the floor (the pre-fix behaviour silently lost every third item here).
func TestEntryRoutingFallsBackToLiveInstance(t *testing.T) {
	const injected = 30
	g := core.NewGraph("lb")
	g.AddTE("work", func(ctx core.Context, it core.Item) {}, nil, true)
	r, err := Deploy(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.ScaleUp("work"); err != nil {
		t.Fatal(err)
	}
	if err := r.ScaleUp("work"); err != nil {
		t.Fatal(err)
	}
	ts, err := r.te("work")
	if err != nil {
		t.Fatal(err)
	}
	insts := ts.instances()
	if len(insts) != 3 {
		t.Fatalf("instances = %d, want 3", len(insts))
	}
	r.KillNode(insts[1].node.ID)
	for k := uint64(0); k < injected; k++ {
		if err := r.Inject("work", k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain")
	}
	if got := r.Processed("work"); got != injected {
		t.Fatalf("processed %d, want %d (killed instance swallowed its share)", got, injected)
	}
}

// TestKeyedEntryParksForDeadPartition: items keyed to a failed partition
// must not reroute across partitions (wrong state) and must not vanish —
// they park in the dead instance's overflow where stats can see them.
func TestKeyedEntryParksForDeadPartition(t *testing.T) {
	// OverflowLen must cover the parked items: admission still bounds how
	// much a dead partition can accumulate (a 7th key here would block or
	// shed), which is itself part of the contract under test.
	r, err := Deploy(keyedEntryGraph(), Options{
		Partitions:  map[string]int{"store": 2},
		QueueLen:    1,
		OverflowLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	ts, err := r.te("put")
	if err != nil {
		t.Fatal(err)
	}
	insts := ts.instances()
	r.KillNode(insts[1].node.ID)
	// Let the killed worker observe its dead channel and exit: a worker
	// mid-select can still legitimately drain one more batch (the general
	// fail-any-time race, covered by replay), which would skew the parked
	// count this test pins down.
	time.Sleep(50 * time.Millisecond)

	// Keys that hash to the dead partition.
	var keys []uint64
	for k := uint64(0); len(keys) < 6; k++ {
		if statePartition(k, 2) == 1 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := r.Inject("put", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var st TEStats
	for _, te := range r.Stats().TEs {
		if te.Name == "put" {
			st = te
		}
	}
	// QueueLen=1: one item sits in the dead instance's channel, the rest
	// park in its overflow — visible, not silently dropped.
	if want := len(keys) - 1; st.Overflow != want {
		t.Fatalf("overflow = %d, want %d parked items", st.Overflow, want)
	}
	if got := r.Processed("put"); got != 0 {
		t.Fatalf("processed %d, want 0 (nothing may reroute to the live partition)", got)
	}
	if st0, _ := r.StateStore("store", 0); st0.NumEntries() != 0 {
		t.Fatalf("live partition gained %d entries from rerouted keyed items", st0.NumEntries())
	}
}

// TestKeyedEntryRecoversParkedItems: with fault tolerance on, items keyed
// to a failed partition wait (logged in the source buffer) and are
// re-delivered by replay once the partition recovers — end-to-end lossless.
func TestKeyedEntryRecoversParkedItems(t *testing.T) {
	r, err := Deploy(keyedEntryGraph(), Options{
		Partitions: map[string]int{"store": 2},
		Mode:       checkpoint.ModeAsync,
		Interval:   time.Hour, // manual checkpoints only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// Anchor a checkpoint so the partition can be restored.
	if _, err := r.CheckpointNow("store", 1); err != nil {
		t.Fatal(err)
	}
	ts, err := r.te("put")
	if err != nil {
		t.Fatal(err)
	}
	r.KillNode(ts.instances()[1].node.ID)

	var keys []uint64
	for k := uint64(0); len(keys) < 5; k++ {
		if statePartition(k, 2) == 1 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := r.Inject("put", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after recovery")
	}
	st1, err := r.StateStore("store", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, ok := st1.(state.KV).Get(k)
		if !ok {
			t.Fatalf("key %d lost across partition failure", k)
		}
		if want := fmt.Sprintf("v%d", k); string(v) != want {
			t.Fatalf("key %d = %q, want %q", k, v, want)
		}
	}
}

// TestBackpressureSignalFeedsStats: a frozen TE accumulates parked overflow
// past its watermark and must surface Backpressured in Stats — the signal
// the bottleneck detector and operators key off.
func TestBackpressureSignalFeedsStats(t *testing.T) {
	gate := make(chan struct{})
	g := core.NewGraph("bp")
	src := g.AddTE("src", func(ctx core.Context, it core.Item) {
		// Fan out so the downstream TE saturates while ingress stays
		// under its own entry bound.
		for f := 0; f < 8; f++ {
			ctx.Emit(0, it.Key*8+uint64(f), nil)
		}
	}, nil, true)
	slow := g.AddTE("slow", func(ctx core.Context, it core.Item) {
		<-gate
	}, nil, false)
	g.Connect(src, slow, core.DispatchOneToAny)
	r, err := Deploy(g, Options{QueueLen: 1, OverflowLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// Registered after Stop so it runs first: a failing assert releases
	// the parked items instead of wedging Stop behind the gate.
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	// One batch, not four Injects: once src fans out key 0, slow parks
	// OverflowLen items, backpressure closes ingress, and a blocking
	// Inject with no deadline would wait for a gate that only opens below.
	// An idle entry always admits a whole batch.
	batch := make([]InjectItem, 4)
	for k := range batch {
		batch[k] = InjectItem{Key: uint64(k)}
	}
	if err := r.InjectBatch("src", batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		var st TEStats
		for _, te := range r.Stats().TEs {
			if te.Name == "slow" {
				st = te
			}
		}
		if st.Backpressured && st.Overflow >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow TE never reported backpressure (overflow=%d)", st.Overflow)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after release")
	}
	if got := r.Processed("slow"); got != 32 {
		t.Fatalf("slow processed %d, want 32 (parked items must all deliver)", got)
	}
}
