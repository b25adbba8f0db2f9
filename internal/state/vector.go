package state

import (
	"encoding/binary"
	"math"
)

// vecBlock is the element count of one dense block of a Vector's base.
const vecBlock = 256

// maxVectorLen bounds a vector's length: a float64 slice of it still has a
// byte size that fits an int.
const maxVectorLen = math.MaxInt / 8

// Vector is a dense float64 vector SE with dirty-state support: the store
// core (table) over elements keyed by index, so PartitionKey(index) routes
// and stores an element alike. A base checkpoint carries the non-zero
// elements and the last one, so the length comes from the entries: a
// restore grows the vector to its largest index + 1. A zero base entry
// never overwrites a present element, so the pieces of several partitioned
// instances merge. The LR application keeps its model weights in a partial
// Vector; the CF merge step reconciles partial recommendation Vectors. A
// Vector is one lock stripe.
type Vector struct {
	table[float64, *vecEntries]
}

// vecEntries is a Vector's base: length n, the elements in dense blocks
// keyed by block index. An absent block reads as zeros, so memory follows
// the blocks written, never an index alone. Every element below n reads as
// present; the entries all yields are the non-zero ones and the last.
type vecEntries struct {
	n      uint64
	blocks map[uint64]*[vecBlock]float64
}

func (e *vecEntries) get(k uint64) (float64, bool) {
	if k >= e.n {
		return 0, false
	}
	if b := e.blocks[k/vecBlock]; b != nil {
		return b[k%vecBlock], true
	}
	return 0, true
}

// set writes element k, growing the vector to hold it.
func (e *vecEntries) set(k uint64, x float64) {
	e.n = max(e.n, k+1)
	if x != 0 || e.blocks[k/vecBlock] != nil {
		e.block(k / vecBlock)[k%vecBlock] = x
	}
}

// block returns block b, allocating it zeroed on first use.
func (e *vecEntries) block(b uint64) *[vecBlock]float64 {
	blk := e.blocks[b]
	if blk == nil {
		blk = new([vecBlock]float64)
		e.blocks[b] = blk
	}
	return blk
}

// del zeroes element k: a vector has no holes.
func (e *vecEntries) del(k uint64) {
	if k < e.n {
		e.set(k, 0)
	}
}

func (e *vecEntries) len() int {
	n := 0
	for range e.all {
		n++
	}
	return n
}

func (e *vecEntries) all(yield func(uint64, float64) bool) {
	if e.n == 0 {
		return
	}
	last := e.n - 1
	for b, blk := range e.blocks {
		for i, x := range blk {
			if k := b*vecBlock + uint64(i); x != 0 && k < last && !yield(k, x) {
				return
			}
		}
	}
	x, _ := e.get(last)
	yield(last, x)
}

// cleared zeroes every element; the length stays.
func (e *vecEntries) cleared() *vecEntries {
	out := &vecEntries{blocks: make(map[uint64]*[vecBlock]float64)}
	if e != nil {
		out.n = e.n
	}
	return out
}

// elemCodec encodes an element as its 8 float64 bytes, a zero as none.
type elemCodec struct{}

func (elemCodec) size(float64) int64      { return 0 }
func (elemCodec) clone(x float64) float64 { return x }
func (elemCodec) blank(x float64) bool    { return x == 0 }

func (elemCodec) encode(dst []byte, x float64) []byte {
	if x == 0 {
		return append(dst, 0)
	}
	return binary.LittleEndian.AppendUint64(append(dst, 8), math.Float64bits(x))
}

// decode also refuses an index at or beyond maxVectorLen.
func (elemCodec) decode(k uint64, b []byte) (float64, bool) {
	if k >= maxVectorLen || len(b) != 0 && len(b) != 8 {
		return 0, false
	}
	if len(b) == 0 {
		return 0, true
	}
	return newDecoder(b).float64(), true
}

// NewVector returns a zeroed vector of length n.
func NewVector(n int) *Vector {
	v := &Vector{}
	v.init(TypeVector, elemCodec{}, 0, 1)
	v.stripes[0].base.n = uint64(max(n, 0))
	return v
}

// view runs fn with the stripe read-locked and the live length: the
// base's, or beyond it where a dirty-mode restore wrote past it.
func (v *Vector) view(fn func(s *stripe[float64, *vecEntries], n int)) {
	s := v.stripes[0]
	s.mu.RLock() // pins the mode: BeginDirty and MergeDirty need mu
	defer s.mu.RUnlock()
	n := int(min(s.base.n, maxVectorLen))
	if s.dirty.Load() {
		s.dmu.RLock()
		defer s.dmu.RUnlock()
		for k := range s.ovl {
			n = max(n, int(min(k, maxVectorLen))+1)
		}
	}
	fn(s, n)
}

// Len reports the vector length.
func (v *Vector) Len() (n int) {
	v.view(func(_ *stripe[float64, *vecEntries], l int) { n = l })
	return n
}

// NumEntries reports the vector length.
func (v *Vector) NumEntries() int { return v.Len() }

// SizeBytes reports the approximate memory footprint: 8 bytes an element
// and an overlay entry's share.
func (v *Vector) SizeBytes() (n int64) {
	v.view(func(s *stripe[float64, *vecEntries], l int) { n = 8*int64(l) + 24*int64(len(s.ovl)) })
	return n
}

// Resize grows the vector to length n (no-op if already at least n long).
// Resizing is a structural change and is refused in dirty mode.
func (v *Vector) Resize(n int) error {
	s := v.stripes[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty.Load() {
		return ErrDirtyActive
	}
	if uint64(max(n, 0)) > s.base.n {
		s.base.n = uint64(n)
		s.delta.record(uint64(n - 1)) // the next delta carries the length
	}
	return nil
}

// Get reads element i; out-of-range reads return 0.
func (v *Vector) Get(i int) (x float64) {
	if i >= 0 {
		v.with(uint64(i), func(e float64, _ bool) { x = e })
	}
	return x
}

// Set writes element i. Writes beyond the current length are a silent
// no-op; callers size the vector up front with Resize.
func (v *Vector) Set(i int, x float64) {
	if i >= 0 {
		v.update(uint64(i), func(_ float64, ok bool) (float64, bool) { return x, ok })
	}
}

// Add increments element i by delta and returns the new value.
func (v *Vector) Add(i int, delta float64) float64 {
	if i < 0 {
		return delta
	}
	var out float64
	v.update(uint64(i), func(x float64, ok bool) (float64, bool) {
		out = x + delta
		return out, ok
	})
	return out
}

// Clear zeroes every element; the length stays.
func (v *Vector) Clear() {
	s := v.stripes[0]
	dirty := s.lockWrite()
	defer s.unlockWrite(dirty)
	if !dirty {
		s.delta.note(s.keys)
		s.base = s.base.cleared()
		return
	}
	for k := range s.base.n {
		s.ovl[k] = 0
	}
	for k := range s.ovl {
		s.ovl[k] = 0
	}
}

// Snapshot returns a copy of the vector contents.
func (v *Vector) Snapshot() (out []float64) {
	v.view(func(s *stripe[float64, *vecEntries], n int) {
		out = make([]float64, n)
		for lo := 0; lo < n; lo += vecBlock {
			if blk := s.base.blocks[uint64(lo/vecBlock)]; blk != nil {
				copy(out[lo:], blk[:])
			}
		}
		if s.dirty.Load() {
			for k := range s.tomb {
				if k < uint64(n) {
					out[k] = 0
				}
			}
			for k, x := range s.ovl {
				out[k] = x
			}
		}
	})
	return out
}

// AddScaled performs vals += a*x element-wise over min(len, len(x)) items.
// It is the SGD update kernel for logistic regression: in clean mode a
// loop over the dense blocks, in dirty mode element-wise into the overlay.
func (v *Vector) AddScaled(x []float64, a float64) {
	s := v.stripes[0]
	dirty := s.lockWrite()
	defer s.unlockWrite(dirty)
	x = x[:min(uint64(len(x)), s.base.n)]
	if dirty {
		for i, xi := range x {
			v.modify(s, true, uint64(i), func(e float64, ok bool) (float64, bool) { return e + a*xi, ok })
		}
		return
	}
	for lo := 0; lo < len(x); lo += vecBlock {
		seg := x[lo:min(lo+vecBlock, len(x))]
		blk := s.base.block(uint64(lo / vecBlock))[:len(seg)]
		for i, xi := range seg {
			blk[i] += a * xi
		}
	}
	if s.delta.on.Load() {
		for i := range x {
			s.delta.record(uint64(i))
		}
	}
}

// Dot computes the inner product with x over min(len, len(x)) items.
func (v *Vector) Dot(x []float64) float64 {
	s := v.Snapshot()
	d := 0.0
	for i := range min(len(s), len(x)) {
		d += s[i] * x[i]
	}
	return d
}

// Compile-time interface check.
var _ Store = (*Vector)(nil)
