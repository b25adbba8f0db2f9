package state

import (
	"math"
	"testing"
)

func TestMatrixBasic(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 3.5)
	m.Set(-4, 7, 1.0)
	if v := m.Get(1, 2); v != 3.5 {
		t.Fatalf("Get = %f", v)
	}
	if v := m.Get(9, 9); v != 0 {
		t.Fatalf("missing cell = %f, want 0", v)
	}
	if v := m.Add(1, 2, 0.5); v != 4.0 {
		t.Fatalf("Add returned %f", v)
	}
	if m.NumEntries() != 2 {
		t.Fatalf("NumEntries = %d", m.NumEntries())
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	if m.Type() != TypeMatrix {
		t.Fatal("wrong type")
	}
}

func TestMatrixRowVec(t *testing.T) {
	m := NewMatrix()
	m.Set(5, 1, 1.0)
	m.Set(5, 2, 2.0)
	row := m.RowVec(5)
	if len(row) != 2 || row[1] != 1.0 || row[2] != 2.0 {
		t.Fatalf("RowVec = %v", row)
	}
	// Mutating the copy must not affect the matrix.
	row[1] = 99
	if m.Get(5, 1) != 1.0 {
		t.Fatal("RowVec returned aliased map")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix()
	// M = [ (0,0)=1 (0,1)=2 ; (1,1)=3 ]
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 1, 3)
	x := map[int64]float64{0: 10, 1: 100}
	y := m.MulVec(x)
	if y[0] != 210 || y[1] != 300 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMatrixMulVecWithOverlay(t *testing.T) {
	m := NewMatrix()
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 5)  // override
	m.Set(2, 1, 10) // new row in overlay
	x := map[int64]float64{0: 1, 1: 1}
	y := m.MulVec(x)
	if y[0] != 7 { // 5 + 2, overlay overrides base cell (0,0)
		t.Fatalf("y[0] = %f, want 7", y[0])
	}
	if y[2] != 10 {
		t.Fatalf("y[2] = %f, want 10", y[2])
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	y2 := m.MulVec(x)
	if y2[0] != 7 || y2[2] != 10 {
		t.Fatalf("post-merge MulVec = %v", y2)
	}
}

func TestMatrixDirtyCheckpointIsolation(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 1, 1.0)
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	m.Set(1, 1, 2.0)
	m.Set(2, 2, 9.0)
	if v := m.Get(1, 1); v != 2.0 {
		t.Fatalf("dirty read = %f", v)
	}
	chunks := drainStream(t, m, 8)
	r := NewMatrix()
	if err := r.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if v := r.Get(1, 1); v != 1.0 {
		t.Fatalf("checkpoint leaked dirty write: %f", v)
	}
	if v := r.Get(2, 2); v != 0 {
		t.Fatalf("checkpoint contains dirty-only cell: %f", v)
	}
	if n, err := m.MergeDirty(); err != nil || n != 2 {
		t.Fatalf("MergeDirty = %d, %v", n, err)
	}
	if v := m.Get(2, 2); v != 9.0 {
		t.Fatal("merge lost overlay cell")
	}
	if m.NumEntries() != 2 {
		t.Fatalf("NumEntries after merge = %d", m.NumEntries())
	}
}

func TestMatrixCheckpointRestoreNegativeIndices(t *testing.T) {
	m := NewMatrix()
	m.Set(-10, -20, 1.5)
	m.Set(3, 4, 2.5)
	chunks := drainStream(t, m, 64)
	r := NewMatrix()
	if err := r.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if r.Get(-10, -20) != 1.5 || r.Get(3, 4) != 2.5 {
		t.Fatal("negative index round trip failed")
	}
}

func TestMatrixSplitDisjointComplete(t *testing.T) {
	m := NewMatrix()
	for r := int64(0); r < 50; r++ {
		for c := int64(0); c < 4; c++ {
			m.Set(r, c, float64(r*10+c))
		}
	}
	parts := reshapeByChunks(t, m, 4, func() Store { return NewMatrix() })
	if m.NumEntries() != 200 {
		t.Fatalf("source holds %d cells after the split, want 200", m.NumEntries())
	}
	total := 0
	for _, p := range parts {
		total += p.NumEntries()
	}
	if total != 200 {
		t.Fatalf("partitions hold %d cells, want 200", total)
	}
	// Rows must be whole within a single partition.
	for r := int64(0); r < 50; r++ {
		owner := PartitionKey(uint64(r), 4)
		for pi, p := range parts {
			mm := p.(*Matrix)
			got := mm.Get(r, 0)
			if pi == owner && got != float64(r*10) {
				t.Fatalf("row %d missing from owner partition %d", r, pi)
			}
			if pi != owner && got != 0 {
				t.Fatalf("row %d leaked into partition %d", r, pi)
			}
		}
	}
}

func TestMatrixSplitChunkEquivalence(t *testing.T) {
	m := NewMatrix()
	for r := int64(0); r < 40; r++ {
		m.Set(r, r%7, float64(r))
	}
	one := drainStream(t, m, 1<<20)
	if len(one) != 1 {
		t.Fatalf("streamed %d chunks, want 1", len(one))
	}
	split, err := SplitChunk(one[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewMatrix()
	if err := r.Restore(split); err != nil {
		t.Fatal(err)
	}
	for row := int64(0); row < 40; row++ {
		if got := r.Get(row, row%7); math.Abs(got-float64(row)) > 1e-12 {
			t.Fatalf("cell (%d,%d) = %f", row, row%7, got)
		}
	}
}
