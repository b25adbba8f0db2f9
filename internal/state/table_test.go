package state

import (
	"encoding/binary"
	"sync"
	"testing"
)

// deltaAfterOneWrite builds a tracked store, commits a base cut, runs
// write, and returns the delta stream of that one change.
func deltaAfterOneWrite(t *testing.T, st Store, write func()) []Chunk {
	t.Helper()
	st.EnableDeltaTracking()
	st.CutDelta()
	st.CommitDelta()
	write()
	chunks := drainDelta(t, st, 1<<20)
	st.CommitDelta()
	return chunks
}

// TestMatrixDeltaCarriesOneRow: with one changed cell in a 10k-row
// matrix, the delta is one chunk no bigger than the changed row's entry
// plus the chunk header (an update count and a tombstone count), and it
// replays onto the base.
func TestMatrixDeltaCarriesOneRow(t *testing.T) {
	m := NewMatrix()
	for r := int64(0); r < 10000; r++ {
		for c := int64(0); c < 4; c++ {
			m.Set(r, c, float64(r+c))
		}
	}
	base := drainStream(t, m, 1<<20)
	chunks := deltaAfterOneWrite(t, m, func() { m.Set(4321, 2, -1) })
	if len(chunks) != 1 {
		t.Fatalf("delta streamed %d chunks, want 1", len(chunks))
	}
	row := rowCodec{}.encode(binary.AppendUvarint(nil, 4321), m.RowVec(4321))
	if got, limit := len(chunks[0].Data), len(row)+2; got > limit {
		t.Fatalf("one-row delta is %d bytes, want at most %d", got, limit)
	}
	r := NewMatrix()
	if err := r.Restore(base); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyDelta(chunks); err != nil {
		t.Fatal(err)
	}
	if r.Get(4321, 2) != -1 || r.Get(4321, 3) != 4324 || r.NumEntries() != 40000 {
		t.Fatalf("replayed delta: cell %v, row neighbour %v, %d cells", r.Get(4321, 2), r.Get(4321, 3), r.NumEntries())
	}
}

// TestVectorDeltaCarriesOneElement: one changed element of a 10k-element
// vector deltas to a few dozen bytes at most.
func TestVectorDeltaCarriesOneElement(t *testing.T) {
	v := NewVector(10000)
	chunks := deltaAfterOneWrite(t, v, func() { v.Set(9876, 0.5) })
	if len(chunks) != 1 || len(chunks[0].Data) > 24 {
		t.Fatalf("one-element delta = %d chunk(s), first %d bytes; want one of at most 24", len(chunks), len(chunks[0].Data))
	}
}

// TestVectorChainKeepsLength: restoring a vector's whole chain — a base,
// then deltas that grow it and edit it — gives the length it had at the
// cut, trailing zeros included, at every split width.
func TestVectorChainKeepsLength(t *testing.T) {
	v := NewVector(50)
	v.EnableDeltaTracking()
	v.Set(3, 1)
	base := drainStream(t, v, 64)
	v.CutDelta()
	v.CommitDelta()
	if err := v.Resize(80); err != nil {
		t.Fatal(err)
	}
	v.Set(60, 2)
	d1 := drainDelta(t, v, 64)
	v.CommitDelta()
	v.AddScaled([]float64{1, 1}, 3)
	d2 := drainDelta(t, v, 64)
	v.CommitDelta()
	want := v.Snapshot()
	for _, n := range []int{1, 3} {
		r := NewVector(0)
		for _, epoch := range [][]Chunk{base, d1, d2} {
			var parts []Chunk
			for _, c := range epoch {
				p, err := SplitChunk(c, n)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p...)
			}
			apply := r.Restore
			if epoch[0].Delta {
				apply = r.ApplyDelta
			}
			if err := apply(parts); err != nil {
				t.Fatal(err)
			}
		}
		got := r.Snapshot()
		if r.Len() != 80 || len(got) != 80 {
			t.Fatalf("split %d: restored Len %d, Snapshot %d, want 80", n, r.Len(), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d: element %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestVectorPieceRestores: one split piece of a vector's base, restored on
// its own into an empty vector, is as long as its largest index + 1, and
// Get, Snapshot and Dot agree on every element. Restoring every piece of
// two vectors that each own half the indices — and hold zeros at the
// others, as partitioned instances do — into one vector keeps every owned
// element, whichever piece lands last.
func TestVectorPieceRestores(t *testing.T) {
	const dim, n = 100, 3
	src := NewVector(dim)
	for i := 0; i < dim; i += 7 {
		src.Set(i, float64(i+1))
	}
	chunks := drainStream(t, src, 1<<20)
	for j := 0; j < n; j++ {
		r := NewVector(0)
		for _, c := range chunks {
			parts, err := SplitChunk(c, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Restore(parts[j : j+1]); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		for i := 0; i < dim; i++ {
			if PartitionKey(uint64(i), n) == j && (i%7 == 0 || i == dim-1) {
				want = i + 1
			}
		}
		snap, ones := r.Snapshot(), make([]float64, dim)
		for i := range ones {
			ones[i] = 1
		}
		if r.Len() != want || len(snap) != want {
			t.Fatalf("piece %d: Len %d, Snapshot %d, want %d", j, r.Len(), len(snap), want)
		}
		sum := 0.0
		for i := 0; i < dim; i++ {
			x := r.Get(i)
			if mine := PartitionKey(uint64(i), n) == j && i%7 == 0; mine && x != float64(i+1) || !mine && x != 0 {
				t.Fatalf("piece %d: element %d = %v", j, i, x)
			}
			if i < want && snap[i] != x {
				t.Fatalf("piece %d: Snapshot[%d] = %v, Get %v", j, i, snap[i], x)
			}
			sum += x
		}
		if d := r.Dot(ones); d != sum {
			t.Fatalf("piece %d: Dot = %v, want %v", j, d, sum)
		}
	}

	halves := [2]*Vector{NewVector(dim), NewVector(dim)}
	for i := 0; i < dim; i++ {
		halves[PartitionKey(uint64(i), 2)].Set(i, float64(i+1))
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		r := NewVector(dim)
		for _, h := range order {
			if err := r.Restore(drainStream(t, halves[h], 64)); err != nil {
				t.Fatal(err)
			}
		}
		for i, x := range r.Snapshot() {
			if x != float64(i+1) {
				t.Fatalf("order %v: element %d = %v, want %d", order, i, x, i+1)
			}
		}
	}
}

// TestMatrixCopyOnWrite: a dirty-mode write to a base row edits a copy in
// the overlay; the base row the checkpoint streams keeps its cells.
func TestMatrixCopyOnWrite(t *testing.T) {
	m := NewMatrix()
	m.Set(7, 1, 1)
	m.Set(7, 2, 2)
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	m.Add(7, 1, 10)
	chunks := drainStream(t, m, 1<<20)
	r := NewMatrix()
	if err := r.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if r.Get(7, 1) != 1 || r.Get(7, 2) != 2 {
		t.Fatalf("checkpoint saw the dirty write: %v", r.RowVec(7))
	}
	if m.Get(7, 1) != 11 || m.Get(7, 2) != 2 {
		t.Fatalf("live row = %v, want {1:11 2:2}", m.RowVec(7))
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if m.Get(7, 1) != 11 || m.NumEntries() != 2 || m.SizeBytes() != matrixRowCost+2*matrixCellCost {
		t.Fatalf("after merge: cell %v, %d cells, %d bytes", m.Get(7, 1), m.NumEntries(), m.SizeBytes())
	}
}

// TestMatrixConcurrentCheckpoint races in-place row writers and readers
// against dirty-mode cuts, streams and merges (run it under -race): every
// streamed base restores to a matrix whose cells each hold a value some
// writer wrote, and after the writers stop the live matrix holds every
// cell's last write.
func TestMatrixConcurrentCheckpoint(t *testing.T) {
	m := NewMatrix()
	m.EnableDeltaTracking()
	const rows, writers, rounds = 16, 3, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := int64(i % rows)
				m.Set(r, int64(w), float64(i+1))
				m.Add(r, -1, 1)
				_ = m.RowVec(r)
				_ = m.MulVec(map[int64]float64{int64(w): 1})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := m.BeginDirty(); err != nil {
				t.Error(err)
				return
			}
			chunks, err := streamAll(m, 256)
			if err == nil && i%2 == 1 {
				var it ChunkIter
				if it, err = m.DeltaStream(256); err == nil {
					_, err = Drain(it)
				}
			}
			if _, merr := m.MergeDirty(); err == nil {
				err = merr
			}
			m.CommitDelta()
			if err != nil {
				t.Error(err)
				return
			}
			r := NewMatrix()
			if err := r.Restore(chunks); err != nil {
				t.Error(err)
				return
			}
			for _, x := range r.MulVec(map[int64]float64{0: 1, 1: 1, 2: 1}) {
				if x <= 0 {
					t.Errorf("restored row sums to %v", x)
				}
			}
		}
	}()
	wg.Wait()
	<-done
	for r := 0; r < rows; r++ {
		hits, last := 0, 0 // row r's writes per writer, and the value of the last
		for i := r; i < rounds; i += rows {
			hits, last = hits+1, i+1
		}
		if got := m.Get(int64(r), -1); got != float64(writers*hits) {
			t.Fatalf("row %d counter = %v, want %d", r, got, writers*hits)
		}
		for w := int64(0); w < writers; w++ {
			if got := m.Get(int64(r), w); got != float64(last) {
				t.Fatalf("cell (%d,%d) = %v, want %d", r, w, got, last)
			}
		}
	}
}

// TestVectorConcurrentCheckpoint races AddScaled, Add and Snapshot against
// dirty-mode cuts and merges: no update is lost.
func TestVectorConcurrentCheckpoint(t *testing.T) {
	v := NewVector(8)
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	const writers, rounds = 3, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v.AddScaled(ones, 1)
				v.Add(i%8, 1)
				if s := v.Snapshot(); len(s) != 8 {
					t.Errorf("Snapshot has %d elements", len(s))
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := v.BeginDirty(); err != nil {
			t.Fatal(err)
		}
		if _, err := streamAll(v, 32); err != nil {
			t.Fatal(err)
		}
		if _, err := v.MergeDirty(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, x := range v.Snapshot() {
		if want := float64(writers*rounds + writers*rounds/8); x != want {
			t.Fatalf("element %d = %v, want %v", i, x, want)
		}
	}
}
