package state

import (
	"fmt"
	"testing"
)

// FuzzChunk feeds arbitrary bytes to the dictionary chunk decoders, as a
// base chunk (Restore) and as a delta chunk (ApplyDelta), and to SplitChunk
// for both. No input may panic, splitting must succeed exactly when the
// whole chunk applies, and a chunk that applies must restore the same
// contents through its n-way split as whole.
func FuzzChunk(f *testing.F) {
	seed := NewKVMap()
	seed.EnableDeltaTracking()
	for k := uint64(0); k < 20; k++ {
		seed.Put(k, []byte(fmt.Sprintf("v%d", k)))
	}
	seed.CutDelta()
	seed.CommitDelta()
	seed.Put(3, []byte("updated"))
	seed.Delete(4)
	base, err := streamAll(seed, 64)
	if err != nil {
		f.Fatal(err)
	}
	it, err := seed.DeltaStream(64)
	if err != nil {
		f.Fatal(err)
	}
	delta, err := Drain(it)
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range append(base, delta...) {
		f.Add(c.Data, uint8(i))
	}
	f.Add([]byte{}, uint8(1))
	// One entry whose value length is 2^64-1: the bounds check must reject
	// it rather than wrap and size a slice from it.
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		ways := int(n%8) + 1
		for _, delta := range []bool{false, true} {
			c := Chunk{Type: TypeKVMap, Delta: delta, Data: data}
			apply := func(st *KVMap, chunks []Chunk) error {
				if delta {
					return st.ApplyDelta(chunks)
				}
				return st.Restore(chunks)
			}
			whole := fuzzBase()
			werr := apply(whole, []Chunk{c})
			parts, serr := SplitChunk(c, ways)
			if (werr == nil) != (serr == nil) {
				t.Fatalf("delta=%v: whole chunk err %v, split err %v", delta, werr, serr)
			}
			if werr != nil {
				continue
			}
			if len(parts) != ways {
				t.Fatalf("delta=%v: split into %d parts, want %d", delta, len(parts), ways)
			}
			split := fuzzBase()
			if err := apply(split, parts); err != nil {
				t.Fatalf("delta=%v: split parts do not apply: %v", delta, err)
			}
			kvEqual(t, whole, split)
		}
	})
}

// fuzzBase is the store every FuzzChunk input applies onto, so tombstones
// have keys to delete.
func fuzzBase() *KVMap {
	m := NewKVMap()
	for k := uint64(0); k < 8; k++ {
		m.Put(k, []byte{byte(k)})
	}
	return m
}
