package state

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector SE with dirty-state support. The LR
// application keeps its model weights in a partial Vector; the CF merge step
// reconciles partial recommendation Vectors.
type Vector struct {
	dirtyCtl
	vals []float64
	ovl  map[int]float64
}

// NewVector returns a zeroed vector of length n.
func NewVector(n int) *Vector {
	return &Vector{vals: make([]float64, n), ovl: make(map[int]float64)}
}

// Type reports TypeVector.
func (v *Vector) Type() StoreType { return TypeVector }

// Len reports the vector length.
func (v *Vector) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.vals)
}

// Resize grows the vector to length n (no-op if already at least n long).
// Resizing is a structural change and is refused in dirty mode.
func (v *Vector) Resize(n int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dirty.Load() {
		return ErrDirtyActive
	}
	if n > len(v.vals) {
		grown := make([]float64, n)
		copy(grown, v.vals)
		v.vals = grown
	}
	return nil
}

// Get reads element i; out-of-range reads return 0.
func (v *Vector) Get(i int) float64 {
	if v.dirty.Load() {
		v.dmu.RLock()
		if x, ok := v.ovl[i]; ok {
			v.dmu.RUnlock()
			return x
		}
		v.dmu.RUnlock()
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i < 0 || i >= len(v.vals) {
		return 0
	}
	return v.vals[i]
}

// Set writes element i. Writes beyond the current length are absorbed by
// the overlay in dirty mode but are a silent no-op otherwise; callers size
// the vector up front with Resize.
func (v *Vector) Set(i int, x float64) {
	if v.baseWriteOrDirty() {
		v.ovl[i] = x
		v.dmu.Unlock()
		return
	}
	if i >= 0 && i < len(v.vals) {
		v.vals[i] = x
	}
	v.mu.Unlock()
}

// Add increments element i by delta and returns the new value.
func (v *Vector) Add(i int, delta float64) float64 {
	x := v.Get(i) + delta
	v.Set(i, x)
	return x
}

// Snapshot returns a merged copy of the vector contents.
func (v *Vector) Snapshot() []float64 {
	v.mu.RLock()
	out := make([]float64, len(v.vals))
	copy(out, v.vals)
	v.mu.RUnlock()
	if v.dirty.Load() {
		v.dmu.RLock()
		for i, x := range v.ovl {
			if i >= 0 && i < len(out) {
				out[i] = x
			}
		}
		v.dmu.RUnlock()
	}
	return out
}

// AddScaled performs vals += a*x element-wise over min(len, len(x)) items.
// It is the SGD update kernel for logistic regression.
func (v *Vector) AddScaled(x []float64, a float64) {
	if v.baseWriteOrDirty() {
		// Slow path during checkpoints: element-wise into the overlay.
		v.dmu.Unlock()
		for i := range x {
			v.Add(i, a*x[i])
		}
		return
	}
	n := len(v.vals)
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		v.vals[i] += a * x[i]
	}
	v.mu.Unlock()
}

// Dot computes the inner product with x over min(len, len(x)) items using
// the merged view.
func (v *Vector) Dot(x []float64) float64 {
	s := v.Snapshot()
	n := len(s)
	if len(x) < n {
		n = len(x)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		d += s[i] * x[i]
	}
	return d
}

// NumEntries reports the dense length.
func (v *Vector) NumEntries() int { return v.Len() }

// SizeBytes reports the approximate memory footprint.
func (v *Vector) SizeBytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return int64(len(v.vals))*8 + int64(len(v.ovl))*24
}

// BeginDirty enters dirty mode (see Store).
func (v *Vector) BeginDirty() error { return v.beginDirty() }

// DirtySize reports the number of overlay entries.
func (v *Vector) DirtySize() int {
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return len(v.ovl)
}

// MergeDirty consolidates the overlay into the base (see Store).
func (v *Vector) MergeDirty() (int, error) {
	unlock, err := v.lockMerge()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n := len(v.ovl)
	maxIdx := len(v.vals) - 1
	for i := range v.ovl {
		if i > maxIdx {
			maxIdx = i
		}
	}
	if maxIdx+1 > len(v.vals) {
		grown := make([]float64, maxIdx+1)
		copy(grown, v.vals)
		v.vals = grown
	}
	for i, x := range v.ovl {
		if i >= 0 {
			v.vals[i] = x
		}
	}
	v.ovl = make(map[int]float64)
	return n, nil
}

// CheckpointStream implements Store: the non-zero elements as
// index-hash-partitioned chunks, enough of them that each is likely under
// maxBytes.
func (v *Vector) CheckpointStream(maxBytes int) (ChunkIter, error) {
	return partitionedStream(v.SizeBytes(), maxBytes, v.checkpoint)
}

// checkpoint serialises non-zero elements into n index-hash-partitioned
// chunks. Every chunk records the full length so any subset restores the
// correct dimension.
func (v *Vector) checkpoint(n int) []Chunk {
	v.mu.RLock()
	defer v.mu.RUnlock()
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newEncoder(len(v.vals)*9/n + 32)
	}
	for i, x := range v.vals {
		if x == 0 {
			continue
		}
		p := PartitionKey(uint64(i), n)
		bodies[p].uvarint(uint64(i))
		bodies[p].float64(x)
		counts[p]++
	}
	chunks := make([]Chunk, n)
	for i := range chunks {
		head := newEncoder(len(bodies[i].buf) + 20)
		head.uvarint(uint64(len(v.vals)))
		head.uvarint(counts[i])
		head.buf = append(head.buf, bodies[i].buf...)
		chunks[i] = Chunk{Type: TypeVector, Index: i, Of: n, Data: head.buf}
	}
	return chunks
}

// Restore merges the given chunks, resizing as needed.
func (v *Vector) Restore(chunks []Chunk) error {
	for _, c := range chunks {
		if c.Type != TypeVector {
			return fmt.Errorf("%w: got %v, want %v", ErrWrongChunkType, c.Type, TypeVector)
		}
		d := newDecoder(c.Data)
		length := vectorLen(d)
		count := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if err := v.Resize(int(length)); err != nil {
			return err
		}
		for i := uint64(0); i < count; i++ {
			idx := d.uvarint()
			x := d.float64()
			if d.err != nil {
				return d.err
			}
			v.Set(int(idx), x)
		}
	}
	return nil
}

// maxVectorLen is the largest vector length a chunk may carry: one whose
// float64 backing array still has a byte size that fits an int.
const maxVectorLen = math.MaxInt / 8

// vectorLen decodes a vector chunk's length field, failing the decoder on
// a length above maxVectorLen before anything is sized from it.
func vectorLen(d *decoder) uint64 {
	n := d.uvarint()
	if n > maxVectorLen {
		d.fail()
		return 0
	}
	return n
}

func splitVectorChunk(c Chunk, n int) ([]Chunk, error) {
	d := newDecoder(c.Data)
	length := vectorLen(d)
	count := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	bodies := make([]*encoder, n)
	counts := make([]uint64, n)
	for i := range bodies {
		bodies[i] = newEncoder(len(c.Data)/n + 16)
	}
	for i := uint64(0); i < count; i++ {
		idx := d.uvarint()
		x := d.float64()
		if d.err != nil {
			return nil, d.err
		}
		p := PartitionKey(idx, n)
		bodies[p].uvarint(idx)
		bodies[p].float64(x)
		counts[p]++
	}
	out := make([]Chunk, n)
	for i := range out {
		head := newEncoder(len(bodies[i].buf) + 20)
		head.uvarint(length)
		head.uvarint(counts[i])
		head.buf = append(head.buf, bodies[i].buf...)
		out[i] = Chunk{Type: TypeVector, Index: i, Of: n, Data: head.buf}
	}
	return out, nil
}
