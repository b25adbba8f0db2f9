package runtime

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire"
)

// spin busy-waits for d: a TE that takes real CPU time per item, so
// batches are long enough for cuts and kills to land inside them.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// incCount adds one to key's count in a dictionary SE.
func incCount(kv state.KV, key uint64) {
	var n uint64
	if v, ok := kv.Get(key); ok {
		n = binary.BigEndian.Uint64(v)
	}
	kv.Put(key, binary.BigEndian.AppendUint64(nil, n+1))
}

// tallyGraph: inc spins for work per item, then counts the item's key in
// the SE "counts". Without fork, inc is the entry TE. With fork, the entry
// TE fork — colocated with counts, which it never touches — forwards each
// item to inc over one of two edges, taken in turn, so fork's two out-edge
// logs interleave one seq space.
func tallyGraph(work time.Duration, fork bool) *core.Graph {
	g := core.NewGraph("count")
	se := g.AddSE("counts", core.KindPartitioned, state.TypeKVMap, nil)
	acc := &core.Access{SE: se, Mode: core.AccessByKey}
	inc := g.AddTE("inc", func(ctx core.Context, it core.Item) {
		spin(work)
		incCount(ctx.Store().(state.KV), it.Key)
	}, acc, !fork)
	if fork {
		f := g.AddTE("fork", func(ctx core.Context, it core.Item) {
			ctx.Emit(int(it.Seq%2), it.Key, it.Value)
		}, acc, true)
		g.Connect(f, inc, core.DispatchPartitioned)
		g.Connect(f, inc, core.DispatchPartitioned)
	}
	return g
}

// countTotal sums every key's count.
func countTotal(t *testing.T, r *Runtime) uint64 {
	t.Helper()
	dump, err := r.DumpKV("counts")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, v := range dump {
		total += binary.BigEndian.Uint64(v)
	}
	return total
}

// killCounts fails the node hosting counts/0.
func killCounts(r *Runtime) {
	r.KillNode(r.Stats().SEs[0].Nodes[0])
}

// recoverAndCount recovers counts onto one node, drains, and requires
// every injected item counted exactly once.
func recoverAndCount(t *testing.T, r *Runtime, want uint64) {
	t.Helper()
	if _, err := r.Recover("counts", 1); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !r.Drain(30 * time.Second) {
		t.Fatal("did not drain after recovery")
	}
	if got := countTotal(t, r); got != want {
		t.Fatalf("counted %d items after recovery, want %d", got, want)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRecoverCutIsConsistent checkpoints every 5 ms while items stream
// through a batching TE, then kills and recovers. A cut whose watermarks
// and state are taken at different instants counts the items between them
// twice or never.
func TestRecoverCutIsConsistent(t *testing.T) {
	const items = 20000
	r, err := Deploy(tallyGraph(20*time.Microsecond, false), Options{
		Mode: checkpoint.ModeAsync, Interval: time.Hour, BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-time.After(5 * time.Millisecond):
			}
			if _, err := r.CheckpointNow("counts", 0); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < items; i++ {
		if err := r.Inject("inc", uint64(i%64), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	killCounts(r)
	recoverAndCount(t, r, items)
}

// TestRecoverTwoEdgesInSeqOrder cuts while inc holds a backlog that fork
// logged on two edges, then recovers. The restored logs must be
// re-delivered in seq order across both edges: edge by edge, the second
// log's lower seqs would land behind the first's higher ones and be
// dropped as duplicates. The in-process twin of TestBacklogRestoreTwoEdges.
func TestRecoverTwoEdgesInSeqOrder(t *testing.T) {
	const items = 2000
	r, err := Deploy(tallyGraph(200*time.Microsecond, true), Options{
		Mode: checkpoint.ModeAsync, Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < items; i++ {
		if err := r.Inject("fork", uint64(i%20), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "fork to forward every item", func() bool { return r.Processed("fork") == items })
	if _, err := r.CheckpointNow("counts", 0); err != nil {
		t.Fatal(err)
	}
	killCounts(r)
	if n := r.Processed("inc"); n > items/2 {
		t.Fatalf("inc counted %d of %d items before the kill; the cut held too little backlog to tell", n, items)
	}
	recoverAndCount(t, r, items)
}

// TestRecoverKilledBatchStaysDead kills the node while its TE instance is
// inside a batch and recovers at once. The killed instance may finish its
// current chunk into the failed store, but none of its invokes may reach
// the restored one, or the replayed items count twice.
func TestRecoverKilledBatchStaysDead(t *testing.T) {
	const items = 200
	r, err := Deploy(tallyGraph(time.Millisecond, false), Options{
		Mode: checkpoint.ModeAsync, Interval: time.Hour, BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if _, err := r.CheckpointNow("counts", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		if err := r.Inject("inc", uint64(i%16), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a batch under way", func() bool { return r.Processed("inc") >= 70 })
	killCounts(r)
	recoverAndCount(t, r, items)
}

// TestRecoverRejectsBadMetadata corrupts the TE-state object of the latest
// checkpoint: every truncated or hostile variant makes Recover fail
// without panicking, without swapping anything in and without adding a
// node, and the intact object still recovers afterwards.
func TestRecoverRejectsBadMetadata(t *testing.T) {
	const items = 200
	r, err := Deploy(tallyGraph(0, true), Options{Mode: checkpoint.ModeAsync, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < items; i++ {
		if err := r.Inject("fork", uint64(i%20), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain")
	}
	if _, err := r.CheckpointNow("counts", 0); err != nil {
		t.Fatal(err)
	}
	killCounts(r)

	// The object sits on one backup disk.
	var disk *cluster.Disk
	var name string
	for i := 0; i < r.Cluster().Size(); i++ {
		d := r.Cluster().Node(i).Disk
		for _, obj := range d.List() {
			if strings.HasPrefix(obj, "ckpt/counts/0/") && strings.HasSuffix(obj, "/buffers") {
				disk, name = d, obj
			}
		}
	}
	if disk == nil {
		t.Fatal("no TE-state object on any backup disk")
	}
	good, err := disk.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := decodeSnapRecords(good)
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, p := range parts {
		if p.Kind == wire.PartTEBuf {
			logged++
		}
	}
	if logged == 0 {
		t.Fatal("the checkpoint logged no out-edge items; the test cannot reach the item decoder")
	}

	record := func(raw ...byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(raw))), raw...)
	}
	hostileCount := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for _, tc := range []struct {
		name string
		obj  []byte
	}{
		{"truncated", good[:len(good)-1]},
		{"trailing bytes", append(slices.Clone(good), 0)},
		{"huge record length", binary.AppendUvarint(nil, 1<<62)},
		{"unknown flag", record(7, 1, 2, 3)},
		{"huge raw length", record(append(append([]byte{1}, binary.AppendUvarint(nil, 1<<40)...), 0, 0, 0)...)},
		{"huge watermark count", record(append([]byte{0, wire.PartTE, 4, 'f', 'o', 'r', 'k', 0, 0, 0, 0, 0}, hostileCount...)...)},
		{"huge item count", encodeSnapRecords([]wire.SnapPart{{Kind: wire.PartTEBuf, Name: "fork", Data: hostileCount}})},
		{"edge out of range", encodeSnapRecords([]wire.SnapPart{{Kind: wire.PartTEBuf, Name: "fork", Edge: 99, Data: []byte{0}}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk.Write(name, tc.obj)
			nodes := r.Cluster().Size()
			if _, err := r.Recover("counts", 1); err == nil {
				t.Fatal("Recover accepted a corrupt TE-state object")
			}
			if got := r.Cluster().Size(); got != nodes {
				t.Fatalf("a failed Recover left the cluster at %d nodes, was %d", got, nodes)
			}
		})
	}
	disk.Write(name, good)
	recoverAndCount(t, r, items)
}
