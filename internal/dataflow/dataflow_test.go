package dataflow

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/state"
)

func TestOutputBufferAppendReplay(t *testing.T) {
	var b OutputBuffer
	for i := uint64(1); i <= 5; i++ {
		b.Append(core.Item{Origin: 1, Seq: i, Value: []byte{byte(i)}})
	}
	if b.Len() != 5 {
		t.Fatalf("len = %d", b.Len())
	}
	if b.SizeBytes() <= 0 {
		t.Fatal("size should be positive")
	}
	got := b.Replay()
	if len(got) != 5 || got[0].Seq != 1 || got[4].Seq != 5 {
		t.Fatalf("replay = %+v", got)
	}
	// Replay is a copy.
	got[0].Seq = 99
	if b.Replay()[0].Seq != 1 {
		t.Fatal("replay aliases buffer")
	}
}

func TestOutputBufferRead(t *testing.T) {
	var b OutputBuffer
	for i := uint64(1); i <= 3; i++ {
		b.Append(core.Item{Origin: 1, Seq: i})
	}
	var seqs []uint64
	err := b.Read(func(items []core.Item) error {
		for _, it := range items {
			seqs = append(seqs, it.Seq)
		}
		return nil
	})
	if err != nil || len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("read = %v, %v", seqs, err)
	}
	errStop := errors.New("stop")
	if err := b.Read(func([]core.Item) error { return errStop }); err != errStop {
		t.Fatalf("read error = %v, want %v", err, errStop)
	}
	if b.Len() != 3 {
		t.Fatalf("read changed the buffer: len %d", b.Len())
	}
}

func TestOutputBufferTrim(t *testing.T) {
	var b OutputBuffer
	for i := uint64(1); i <= 10; i++ {
		b.Append(core.Item{Origin: 7, Seq: i})
	}
	b.Trim(map[uint64]uint64{7: 6})
	if b.Len() != 4 {
		t.Fatalf("len after trim = %d, want 4", b.Len())
	}
	for _, it := range b.Replay() {
		if it.Seq <= 6 {
			t.Fatalf("item seq %d survived trim", it.Seq)
		}
	}
	// Trimming with an unrelated origin keeps everything.
	b.Trim(map[uint64]uint64{99: 100})
	if b.Len() != 4 {
		t.Fatal("unrelated trim removed items")
	}
	// Nil watermarks trim nothing.
	b.Trim(nil)
	if b.Len() != 4 {
		t.Fatal("nil trim removed items")
	}
	// A prefix trim drops the leading items of its origin up to seq, and
	// stops at the first it must keep; the byte count follows.
	b.TrimPrefix(99, 100)
	b.TrimPrefix(7, 8)
	if got := b.Replay(); len(got) != 2 || got[0].Seq != 9 || b.SizeBytes() != 2*itemCost(got[0]) {
		t.Fatalf("after prefix trim to 8: %v, %d bytes", got, b.SizeBytes())
	}
	b.TrimPrefix(7, ^uint64(0))
	if b.Len() != 0 || b.SizeBytes() != 0 {
		t.Fatalf("trim past the end left %d items, %d bytes", b.Len(), b.SizeBytes())
	}
}

func TestDedupFiltersDuplicates(t *testing.T) {
	d := NewDedup()
	if !d.Fresh(core.Item{Origin: 1, Seq: 1}) {
		t.Fatal("first item should be fresh")
	}
	if !d.Fresh(core.Item{Origin: 1, Seq: 2}) {
		t.Fatal("advancing seq should be fresh")
	}
	if d.Fresh(core.Item{Origin: 1, Seq: 2}) {
		t.Fatal("duplicate should be filtered")
	}
	if d.Fresh(core.Item{Origin: 1, Seq: 1}) {
		t.Fatal("stale item should be filtered")
	}
	if !d.Fresh(core.Item{Origin: 2, Seq: 1}) {
		t.Fatal("different origin should be independent")
	}
}

func TestDedupWatermarksRoundTrip(t *testing.T) {
	d := NewDedup()
	d.Fresh(core.Item{Origin: 1, Seq: 5})
	d.Fresh(core.Item{Origin: 2, Seq: 9})
	w := d.Watermarks()
	if w[1] != 5 || w[2] != 9 {
		t.Fatalf("watermarks = %v", w)
	}
	d2 := NewDedup()
	d2.Restore(w)
	if d2.Fresh(core.Item{Origin: 1, Seq: 5}) {
		t.Fatal("restored filter should reject covered seq")
	}
	if !d2.Fresh(core.Item{Origin: 1, Seq: 6}) {
		t.Fatal("restored filter should accept fresh seq")
	}
	// Mutating the snapshot does not affect the filter.
	w[1] = 100
	if !d.Fresh(core.Item{Origin: 1, Seq: 6}) {
		t.Fatal("watermarks snapshot aliases filter state")
	}
}

func TestGatherCollects(t *testing.T) {
	g := NewGather()
	if _, done := g.Add(core.Item{ReqID: 1, Origin: 10, Parts: 3, Value: "a"}); done {
		t.Fatal("incomplete gather released early")
	}
	if _, done := g.Add(core.Item{ReqID: 1, Origin: 11, Parts: 3, Value: "b"}); done {
		t.Fatal("incomplete gather released early")
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d", g.Pending())
	}
	coll, done := g.Add(core.Item{ReqID: 1, Origin: 12, Parts: 3, Value: "c"})
	if !done || len(coll) != 3 {
		t.Fatalf("done=%v coll=%v", done, coll)
	}
	seen := map[string]bool{}
	for _, v := range coll {
		seen[v.(string)] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("collection contents = %v", coll)
	}
	if g.Pending() != 0 {
		t.Fatal("slot not released")
	}
}

func TestGatherDuplicateOriginOverwrites(t *testing.T) {
	g := NewGather()
	g.Add(core.Item{ReqID: 5, Origin: 1, Parts: 2, Value: "old"})
	// Replay duplicate from same origin must not complete the barrier.
	if _, done := g.Add(core.Item{ReqID: 5, Origin: 1, Parts: 2, Value: "new"}); done {
		t.Fatal("duplicate origin completed barrier")
	}
	coll, done := g.Add(core.Item{ReqID: 5, Origin: 2, Parts: 2, Value: "other"})
	if !done || len(coll) != 2 {
		t.Fatalf("done=%v coll=%v", done, coll)
	}
}

func TestGatherInterleavedRequests(t *testing.T) {
	g := NewGather()
	g.Add(core.Item{ReqID: 1, Origin: 1, Parts: 2, Value: 1})
	g.Add(core.Item{ReqID: 2, Origin: 1, Parts: 2, Value: 10})
	c1, done1 := g.Add(core.Item{ReqID: 1, Origin: 2, Parts: 2, Value: 2})
	c2, done2 := g.Add(core.Item{ReqID: 2, Origin: 2, Parts: 2, Value: 20})
	if !done1 || !done2 || len(c1) != 2 || len(c2) != 2 {
		t.Fatal("interleaved gathers broken")
	}
}

func TestRouterPartitioned(t *testing.T) {
	r := &Router{Dispatch: core.DispatchPartitioned}
	for key := uint64(0); key < 100; key++ {
		dst := r.Route(core.Item{Key: key}, 4)
		if len(dst) != 1 {
			t.Fatalf("partitioned route fanout = %d", len(dst))
		}
		if dst[0] != state.PartitionKey(key, 4) {
			t.Fatal("router disagrees with state partitioning")
		}
	}
}

func TestRouterOneToAny(t *testing.T) {
	r := &Router{Dispatch: core.DispatchOneToAny}
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		dst := r.Route(core.Item{}, 3)
		counts[dst[0]]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("round robin uneven: instance %d got %d", i, c)
		}
	}
}

func TestRouterOneToAll(t *testing.T) {
	r := &Router{Dispatch: core.DispatchOneToAll}
	dst := r.Route(core.Item{}, 5)
	if len(dst) != 5 {
		t.Fatalf("broadcast fanout = %d", len(dst))
	}
	for i, d := range dst {
		if d != i {
			t.Fatal("broadcast should cover all instances in order")
		}
	}
}

func TestRouterAllToOneAndEdgeCases(t *testing.T) {
	r := &Router{Dispatch: core.DispatchAllToOne}
	if dst := r.Route(core.Item{}, 4); len(dst) != 1 || dst[0] != 0 {
		t.Fatalf("all-to-one route = %v", dst)
	}
	if dst := r.Route(core.Item{}, 0); dst != nil {
		t.Fatalf("zero instances should route nowhere, got %v", dst)
	}
}

// Property: dedup admits exactly one item per (origin, seq) regardless of
// duplication pattern.
func TestQuickDedupExactlyOnce(t *testing.T) {
	f := func(seqs []uint8) bool {
		d := NewDedup()
		admitted := map[uint64]bool{}
		// Feed monotone sequence with injected duplicates.
		var max uint64
		for _, s := range seqs {
			seq := uint64(s%16) + 1
			fresh := d.Fresh(core.Item{Origin: 1, Seq: seq})
			if fresh {
				if seq <= max {
					return false // admitted an item at or below watermark
				}
				if admitted[seq] {
					return false // double admission
				}
				admitted[seq] = true
				max = seq
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOutputBufferAppendBatch(t *testing.T) {
	var a, b OutputBuffer
	items := []core.Item{
		{Origin: 1, Seq: 1, Value: []byte("aa")},
		{Origin: 1, Seq: 2, Value: "bbb"},
		{Origin: 2, Seq: 1},
	}
	for _, it := range items {
		a.Append(it)
	}
	b.AppendBatch(items)
	b.AppendBatch(nil)
	if a.Len() != b.Len() || a.SizeBytes() != b.SizeBytes() {
		t.Fatalf("batch append diverges: len %d/%d bytes %d/%d",
			a.Len(), b.Len(), a.SizeBytes(), b.SizeBytes())
	}
	ra, rb := a.Replay(), b.Replay()
	for i := range ra {
		if ra[i].Origin != rb[i].Origin || ra[i].Seq != rb[i].Seq {
			t.Fatalf("item %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestItemCostCountsCollections(t *testing.T) {
	var plain, gathered OutputBuffer
	plain.Append(core.Item{Origin: 1, Seq: 1})
	payload := core.Collection{make([]byte, 100), make([]byte, 150), "tail"}
	gathered.Append(core.Item{Origin: 1, Seq: 1, Value: payload})
	// The gathered item must account for the partial results it carries,
	// not just the item header (the old accounting undercounted every
	// merge input at 48 bytes).
	if gathered.SizeBytes() < plain.SizeBytes()+254 {
		t.Fatalf("collection cost = %d, header-only = %d; nested payloads not counted",
			gathered.SizeBytes(), plain.SizeBytes())
	}
	// Trim-path recomputation agrees with append-path accounting.
	gathered.Append(core.Item{Origin: 2, Seq: 1, Value: payload})
	want := gathered.SizeBytes() / 2
	gathered.Trim(map[uint64]uint64{1: 5})
	if gathered.SizeBytes() != want {
		t.Fatalf("post-trim size = %d, want %d", gathered.SizeBytes(), want)
	}
}

func TestDedupFreshBatchMatchesFresh(t *testing.T) {
	items := []core.Item{
		{Origin: 1, Seq: 1},
		{Origin: 1, Seq: 1}, // duplicate within the batch
		{Origin: 2, Seq: 5},
		{Origin: 1, Seq: 2},
		{Origin: 2, Seq: 4}, // stale
		{Origin: 3, Seq: 1},
	}
	seq := NewDedup()
	var wantKept []core.Item
	for _, it := range items {
		if seq.Fresh(it) {
			wantKept = append(wantKept, it)
		}
	}
	batch := NewDedup()
	kept := batch.FreshBatch(items, nil)
	if len(kept) != len(wantKept) {
		t.Fatalf("kept %d items, want %d", len(kept), len(wantKept))
	}
	for i := range kept {
		if kept[i] != wantKept[i] {
			t.Fatalf("kept[%d] = %+v, want %+v", i, kept[i], wantKept[i])
		}
	}
	sw, bw := seq.Watermarks(), batch.Watermarks()
	if len(sw) != len(bw) {
		t.Fatalf("watermark origins %d vs %d", len(sw), len(bw))
	}
	for o, s := range sw {
		if bw[o] != s {
			t.Fatalf("origin %d watermark %d vs %d", o, s, bw[o])
		}
	}
	// Scratch reuse: a second batch appends into the same backing array.
	kept2 := batch.FreshBatch([]core.Item{{Origin: 3, Seq: 2}}, kept[:0])
	if len(kept2) != 1 || kept2[0].Seq != 2 {
		t.Fatalf("scratch reuse broken: %+v", kept2)
	}
}

func TestGatherRefillCompletesPendingWaveOnly(t *testing.T) {
	g := NewGather()
	// A wave missing one partial: the original from origin 2 was lost with
	// a failed instance.
	g.Add(core.Item{ReqID: 9, Origin: 1, Parts: 2, Value: "a"})
	// A replayed duplicate from a surviving origin only overwrites.
	if _, done := g.Refill(core.Item{ReqID: 9, Origin: 1, Parts: 2, Value: "a2"}); done {
		t.Fatal("refill of existing slot completed the wave")
	}
	// The recovered instance re-emits origin 2's partial under an
	// already-seen timestamp; the refill must complete the wave.
	coll, done := g.Refill(core.Item{ReqID: 9, Origin: 2, Parts: 2, Value: "b"})
	if !done || len(coll) != 2 {
		t.Fatalf("refill did not complete: done=%v coll=%v", done, coll)
	}
	if g.Pending() != 0 {
		t.Fatal("completed wave not released")
	}
	// A duplicate arriving after completion must not recreate the wave —
	// that would re-invoke the merge computation.
	if _, done := g.Refill(core.Item{ReqID: 9, Origin: 1, Parts: 2, Value: "late"}); done {
		t.Fatal("refill recreated a completed wave")
	}
	if g.Pending() != 0 {
		t.Fatalf("refill leaked a wave: pending = %d", g.Pending())
	}
	// Fire-and-forget waves share pending key 0; a stale duplicate from an
	// earlier wave must never complete the current one.
	g.Add(core.Item{ReqID: 0, Origin: 1, Parts: 2, Value: "new-wave"})
	if _, done := g.Refill(core.Item{ReqID: 0, Origin: 2, Parts: 2, Value: "old-wave"}); done {
		t.Fatal("refill completed a fire-and-forget wave with a stale value")
	}
	if g.Pending() != 1 {
		t.Fatalf("fire-and-forget wave disturbed: pending = %d", g.Pending())
	}
}

func TestGatherEvict(t *testing.T) {
	g := NewGather()
	g.Add(core.Item{ReqID: 1, Origin: 1, Parts: 2, Value: "a"})
	g.Add(core.Item{ReqID: 2, Origin: 1, Parts: 2, Value: "b"})
	g.Add(core.Item{ReqID: 3, Origin: 1, Parts: 2, Value: "c"})
	if n := g.Evict(func(req uint64) bool { return req != 2 }); n != 2 {
		t.Fatalf("evicted %d waves, want 2", n)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
	// The surviving wave still completes.
	if _, done := g.Add(core.Item{ReqID: 2, Origin: 2, Parts: 2, Value: "b2"}); !done {
		t.Fatal("surviving wave cannot complete")
	}
}

func TestRouteBatchMatchesRoute(t *testing.T) {
	items := make([]core.Item, 50)
	for i := range items {
		items[i] = core.Item{Key: uint64(i * 131)}
	}
	for _, d := range []core.Dispatch{core.DispatchPartitioned, core.DispatchAllToOne} {
		one := &Router{Dispatch: d}
		bat := &Router{Dispatch: d}
		targets := bat.RouteBatch(items, 4, nil)
		if len(targets) != len(items) {
			t.Fatalf("%v: %d targets for %d items", d, len(targets), len(items))
		}
		for i, it := range items {
			if want := one.Route(it, 4)[0]; targets[i] != want {
				t.Fatalf("%v item %d: batch target %d, route target %d", d, i, targets[i], want)
			}
		}
	}
	// Scratch is reused without allocation once sized.
	part := &Router{Dispatch: core.DispatchPartitioned}
	scratch := make([]int, 0, len(items))
	allocs := testing.AllocsPerRun(20, func() {
		scratch = part.RouteBatch(items, 4, scratch[:0])
	})
	if allocs != 0 {
		t.Errorf("RouteBatch allocated %.1f times with sized scratch", allocs)
	}
	// Zero instances route nowhere.
	if got := part.RouteBatch(items, 0, nil); len(got) != 0 {
		t.Fatalf("no-instance routing returned %v", got)
	}
	// The strategies the delivery layer owns (broadcast, least-loaded)
	// must refuse per-item routing rather than silently diverge.
	for _, d := range []core.Dispatch{core.DispatchOneToAll, core.DispatchOneToAny} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RouteBatch(%v) should panic", d)
				}
			}()
			(&Router{Dispatch: d}).RouteBatch(items, 4, nil)
		}()
	}
}

// TestDedupFold: folding raises watermarks to at least the given values and
// never lowers a higher local mark.
func TestDedupFold(t *testing.T) {
	d := NewDedup()
	if !d.Fresh(core.Item{Origin: 1, Seq: 5}) || !d.Fresh(core.Item{Origin: 2, Seq: 9}) {
		t.Fatal("seed items must be fresh")
	}
	d.Fold(map[uint64]uint64{1: 8, 2: 3, 7: 4})
	if d.Fresh(core.Item{Origin: 1, Seq: 8}) {
		t.Error("origin 1 seq 8 must be covered by the fold")
	}
	if !d.Fresh(core.Item{Origin: 1, Seq: 9}) {
		t.Error("origin 1 seq 9 must stay fresh")
	}
	if d.Fresh(core.Item{Origin: 2, Seq: 9}) {
		t.Error("fold must not lower origin 2's higher local mark")
	}
	if d.Fresh(core.Item{Origin: 7, Seq: 4}) {
		t.Error("fold must introduce unseen origins")
	}
	if !d.Fresh(core.Item{Origin: 7, Seq: 5}) {
		t.Error("origin 7 seq 5 must be fresh after the fold")
	}
}
