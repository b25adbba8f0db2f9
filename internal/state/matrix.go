package state

import (
	"fmt"
	"sync/atomic"
)

// Cost model for SizeBytes accounting on sparse matrices.
const (
	matrixCellCost = 32 // key + value + bucket share
	matrixRowCost  = 64 // inner map header share
)

// Matrix is an indexed sparse matrix SE (row -> col -> value), one of the
// paper's predefined state classes. The CF application uses two of them:
// userItem (partitioned by row/user) and coOcc (partial, replicated).
type Matrix struct {
	dirtyCtl
	base map[int64]map[int64]float64
	ovl  map[int64]map[int64]float64
	size atomic.Int64
}

// NewMatrix returns an empty sparse matrix.
func NewMatrix() *Matrix {
	return &Matrix{
		base: make(map[int64]map[int64]float64),
		ovl:  make(map[int64]map[int64]float64),
	}
}

// Type reports TypeMatrix.
func (m *Matrix) Type() StoreType { return TypeMatrix }

// Set writes cell (r, c).
func (m *Matrix) Set(r, c int64, v float64) {
	if m.baseWriteOrDirty() {
		row := m.ovl[r]
		if row == nil {
			row = make(map[int64]float64)
			m.ovl[r] = row
			m.size.Add(matrixRowCost)
		}
		if _, ok := row[c]; !ok {
			m.size.Add(matrixCellCost)
		}
		row[c] = v
		m.dmu.Unlock()
		return
	}
	row := m.base[r]
	if row == nil {
		row = make(map[int64]float64)
		m.base[r] = row
		m.size.Add(matrixRowCost)
	}
	if _, ok := row[c]; !ok {
		m.size.Add(matrixCellCost)
	}
	row[c] = v
	m.mu.Unlock()
}

// Get reads cell (r, c); missing cells are 0.
func (m *Matrix) Get(r, c int64) float64 {
	if m.dirty.Load() {
		m.dmu.RLock()
		if row, ok := m.ovl[r]; ok {
			if v, ok := row[c]; ok {
				m.dmu.RUnlock()
				return v
			}
		}
		m.dmu.RUnlock()
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if row, ok := m.base[r]; ok {
		return row[c]
	}
	return 0
}

// Add increments cell (r, c) by delta and returns the new value.
func (m *Matrix) Add(r, c int64, delta float64) float64 {
	v := m.Get(r, c) + delta
	m.Set(r, c, v)
	return v
}

// RowVec returns a merged copy of row r (overlay over base).
func (m *Matrix) RowVec(r int64) map[int64]float64 {
	out := make(map[int64]float64)
	m.mu.RLock()
	for c, v := range m.base[r] {
		out[c] = v
	}
	m.mu.RUnlock()
	if m.dirty.Load() {
		m.dmu.RLock()
		for c, v := range m.ovl[r] {
			out[c] = v
		}
		m.dmu.RUnlock()
	}
	return out
}

// MulVec computes y[r] = sum_c M[r][c] * x[c] over the merged view. It is
// the kernel of getRec in the CF algorithm (coOcc.multiply(userRow)).
func (m *Matrix) MulVec(x map[int64]float64) map[int64]float64 {
	y := make(map[int64]float64)
	m.mu.RLock()
	for r, row := range m.base {
		s := 0.0
		for c, v := range row {
			if xv, ok := x[c]; ok {
				s += v * xv
			}
		}
		if s != 0 {
			y[r] = s
		}
	}
	m.mu.RUnlock()
	if m.dirty.Load() {
		// Lock order must match lockMerge: mu before dmu.
		m.mu.RLock()
		m.dmu.RLock()
		for r, row := range m.ovl {
			s := y[r]
			for c, v := range row {
				if xv, ok := x[c]; ok {
					// The overlay overrides the base cell; subtract the base
					// contribution before adding the overlay one.
					if brow, ok2 := m.base[r]; ok2 {
						if bv, ok3 := brow[c]; ok3 {
							s -= bv * xv
						}
					}
					s += v * xv
				}
			}
			if s != 0 {
				y[r] = s
			} else {
				delete(y, r)
			}
		}
		m.dmu.RUnlock()
		m.mu.RUnlock()
	}
	return y
}

// NumEntries reports the number of logical non-missing cells.
func (m *Matrix) NumEntries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.dmu.RLock()
	defer m.dmu.RUnlock()
	n := 0
	for _, row := range m.base {
		n += len(row)
	}
	for r, row := range m.ovl {
		brow := m.base[r]
		for c := range row {
			if _, ok := brow[c]; !ok {
				n++
			}
		}
	}
	return n
}

// SizeBytes reports the approximate memory footprint.
func (m *Matrix) SizeBytes() int64 { return m.size.Load() }

// BeginDirty enters dirty mode (see Store).
func (m *Matrix) BeginDirty() error { return m.beginDirty() }

// DirtySize reports the number of overlay cells.
func (m *Matrix) DirtySize() int {
	m.dmu.RLock()
	defer m.dmu.RUnlock()
	n := 0
	for _, row := range m.ovl {
		n += len(row)
	}
	return n
}

// MergeDirty consolidates the overlay into the base (see Store).
func (m *Matrix) MergeDirty() (int, error) {
	unlock, err := m.lockMerge()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n := 0
	for r, row := range m.ovl {
		brow := m.base[r]
		if brow == nil {
			brow = make(map[int64]float64, len(row))
			m.base[r] = brow
		} else {
			m.size.Add(-matrixRowCost) // overlay row merges into existing row
		}
		for c, v := range row {
			if _, ok := brow[c]; ok {
				m.size.Add(-matrixCellCost) // duplicate cell collapses
			}
			brow[c] = v
			n++
		}
	}
	m.ovl = make(map[int64]map[int64]float64)
	return n, nil
}

// CheckpointStream implements Store: the base as row-hash-partitioned
// chunks, enough of them that each is likely under maxBytes.
func (m *Matrix) CheckpointStream(maxBytes int) (ChunkIter, error) {
	return partitionedStream(m.SizeBytes(), maxBytes, m.checkpoint)
}

// checkpoint serialises the base into n row-hash-partitioned chunks.
func (m *Matrix) checkpoint(n int) []Chunk {
	m.mu.RLock()
	defer m.mu.RUnlock()
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newEncoder(int(m.size.Load())/n + 64)
	}
	for r, row := range m.base {
		p := PartitionKey(uint64(r), n)
		bodies[p].varint(r)
		bodies[p].uvarint(uint64(len(row)))
		for c, v := range row {
			bodies[p].varint(c)
			bodies[p].float64(v)
		}
		counts[p]++
	}
	chunks := make([]Chunk, n)
	for i := range chunks {
		head := newEncoder(len(bodies[i].buf) + 10)
		head.uvarint(counts[i])
		head.buf = append(head.buf, bodies[i].buf...)
		chunks[i] = Chunk{Type: TypeMatrix, Index: i, Of: n, Data: head.buf}
	}
	return chunks
}

// Restore merges the given chunks into the matrix.
func (m *Matrix) Restore(chunks []Chunk) error {
	for _, c := range chunks {
		if c.Type != TypeMatrix {
			return fmt.Errorf("%w: got %v, want %v", ErrWrongChunkType, c.Type, TypeMatrix)
		}
		d := newDecoder(c.Data)
		nrows := d.uvarint()
		for i := uint64(0); i < nrows; i++ {
			r := d.varint()
			ncols := d.uvarint()
			for j := uint64(0); j < ncols; j++ {
				col := d.varint()
				v := d.float64()
				if d.err != nil {
					return d.err
				}
				m.Set(r, col, v)
			}
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}

func splitMatrixChunk(c Chunk, n int) ([]Chunk, error) {
	d := newDecoder(c.Data)
	nrows := d.uvarint()
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newEncoder(len(c.Data)/n + 16)
	}
	for i := uint64(0); i < nrows; i++ {
		r := d.varint()
		ncols := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		p := PartitionKey(uint64(r), n)
		bodies[p].varint(r)
		bodies[p].uvarint(ncols)
		for j := uint64(0); j < ncols; j++ {
			col := d.varint()
			v := d.float64()
			if d.err != nil {
				return nil, d.err
			}
			bodies[p].varint(col)
			bodies[p].float64(v)
		}
		counts[p]++
	}
	out := make([]Chunk, n)
	for i := range out {
		head := newEncoder(len(bodies[i].buf) + 10)
		head.uvarint(counts[i])
		head.buf = append(head.buf, bodies[i].buf...)
		out[i] = Chunk{Type: TypeMatrix, Index: i, Of: n, Data: head.buf}
	}
	return out, nil
}
