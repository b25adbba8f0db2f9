package state

import (
	"encoding/binary"
	"math"
)

// Cost model for SizeBytes accounting on sparse matrices.
const (
	matrixCellCost = 32 // key + value + bucket share
	matrixRowCost  = 64 // inner map header share
)

// Matrix is an indexed sparse matrix SE (row -> col -> value), one of the
// paper's predefined state classes: the store core (table) over rows keyed
// by row id, so a row is the unit of partitioning, checkpointing and the
// dirty overlay's copy-on-write. The CF application uses two of them:
// userItem (partitioned by row/user) and coOcc (partial, replicated).
type Matrix struct {
	table[map[int64]float64, hashEntries[map[int64]float64]]
}

// rowCodec encodes a row as its (varint col, float64) cells, in map order.
type rowCodec struct{}

func (rowCodec) size(row map[int64]float64) int64 { return matrixCellCost * int64(len(row)) }
func (rowCodec) blank(map[int64]float64) bool     { return false }

func (rowCodec) encode(dst []byte, row map[int64]float64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := 0
	for c := range row {
		n += binary.PutVarint(tmp[:], c) + 8
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for c, x := range row {
		dst = binary.LittleEndian.AppendUint64(binary.AppendVarint(dst, c), math.Float64bits(x))
	}
	return dst
}

func (rowCodec) decode(_ uint64, b []byte) (map[int64]float64, bool) {
	// A cell takes at least 9 bytes, so the hint is bounded by the bytes.
	row := make(map[int64]float64, len(b)/9)
	d := newDecoder(b)
	for d.err == nil && d.off < len(b) {
		c, x := d.varint(), d.float64()
		if d.err == nil {
			row[c] = x
		}
	}
	return row, d.err == nil
}

func (rowCodec) clone(row map[int64]float64) map[int64]float64 {
	out := make(map[int64]float64, len(row)+1)
	for c, x := range row {
		out[c] = x
	}
	return out
}

// NewMatrix returns an empty sparse matrix.
func NewMatrix() *Matrix {
	m := &Matrix{}
	m.init(TypeMatrix, rowCodec{}, matrixRowCost, 1)
	return m
}

// Set writes cell (r, c).
func (m *Matrix) Set(r, c int64, v float64) {
	m.update(uint64(r), func(row map[int64]float64, ok bool) (map[int64]float64, bool) {
		if !ok {
			row = make(map[int64]float64)
		}
		row[c] = v
		return row, true
	})
}

// Get reads cell (r, c); missing cells are 0.
func (m *Matrix) Get(r, c int64) float64 {
	var v float64
	m.with(uint64(r), func(row map[int64]float64, _ bool) { v = row[c] })
	return v
}

// Add increments cell (r, c) by delta and returns the new value.
func (m *Matrix) Add(r, c int64, delta float64) float64 {
	var v float64
	m.update(uint64(r), func(row map[int64]float64, ok bool) (map[int64]float64, bool) {
		if !ok {
			row = make(map[int64]float64)
		}
		v = row[c] + delta
		row[c] = v
		return row, true
	})
	return v
}

// RowVec returns a copy of row r.
func (m *Matrix) RowVec(r int64) map[int64]float64 {
	var out map[int64]float64
	m.with(uint64(r), func(row map[int64]float64, _ bool) { out = rowCodec{}.clone(row) })
	return out
}

// MulVec computes y[r] = sum_c M[r][c] * x[c] over the live rows. It is
// the kernel of getRec in the CF algorithm (coOcc.multiply(userRow)). The
// base is scanned under the base lock alone, which dirty-mode writers
// share; the overlay lock is held only to replace the rows the overlay
// shadows.
func (m *Matrix) MulVec(x map[int64]float64) map[int64]float64 {
	y := make(map[int64]float64)
	put := func(r uint64, row map[int64]float64) {
		s := 0.0
		for c, v := range row {
			if xv, ok := x[c]; ok {
				s += v * xv
			}
		}
		if s != 0 {
			y[int64(r)] = s
		} else {
			delete(y, int64(r))
		}
	}
	for _, s := range m.stripes {
		s.mu.RLock() // pins the mode: BeginDirty and MergeDirty need mu
		for r, row := range s.base {
			put(r, row)
		}
		if s.dirty.Load() {
			s.dmu.RLock()
			for r, row := range s.ovl {
				put(r, row)
			}
			for r := range s.tomb {
				delete(y, int64(r))
			}
			s.dmu.RUnlock()
		}
		s.mu.RUnlock()
	}
	return y
}

// NumEntries reports the number of logical non-missing cells.
func (m *Matrix) NumEntries() int {
	n := 0
	m.scan(func(_ uint64, row map[int64]float64) bool {
		n += len(row)
		return true
	})
	return n
}

// Compile-time interface check: the matrix takes delta checkpoints too.
var _ DeltaStore = (*Matrix)(nil)
