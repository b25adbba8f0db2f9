package state

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: for any key set, a streamed checkpoint restores the map
// exactly, for any chunk byte bound — for every (source, destination)
// pairing of the dictionary backends.
func TestQuickKVMapCheckpointRoundTrip(t *testing.T) {
	for _, src := range kvImpls {
		for _, dst := range kvImpls {
			t.Run(src.name+"-to-"+dst.name, func(t *testing.T) {
				f := func(keys []uint64, vals [][]byte, bound uint16) bool {
					m := src.new()
					want := map[uint64][]byte{}
					for i, k := range keys {
						var v []byte
						if i < len(vals) {
							v = vals[i]
						}
						if v == nil {
							v = []byte{}
						}
						m.Put(k, v)
						want[k] = v
					}
					chunks, err := streamAll(m, int(bound%4096)+1)
					if err != nil {
						return false
					}
					r := dst.new()
					if err := r.Restore(chunks); err != nil {
						return false
					}
					if r.NumEntries() != len(want) {
						return false
					}
					for k, v := range want {
						got, ok := r.Get(k)
						if !ok || !bytes.Equal(got, v) {
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// Property: SplitChunk composes with Restore: restoring the split chunks is
// identical to restoring the original chunk.
func TestQuickKVMapSplitChunk(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			f := func(keys []uint64, splitN uint8) bool {
				n := int(splitN%6) + 1
				m := impl.new()
				for _, k := range keys {
					m.Put(k, []byte{byte(k)})
				}
				one, err := streamAll(m, 1<<20)
				if err != nil || len(one) != 1 {
					return false
				}
				split, err := SplitChunk(one[0], n)
				if err != nil {
					return false
				}
				a := impl.new()
				if err := a.Restore(one); err != nil {
					return false
				}
				b := impl.new()
				if err := b.Restore(split); err != nil {
					return false
				}
				if a.NumEntries() != b.NumEntries() {
					return false
				}
				equal := true
				a.ForEach(func(k uint64, v []byte) bool {
					got, ok := b.Get(k)
					if !ok || !bytes.Equal(got, v) {
						equal = false
						return false
					}
					return true
				})
				return equal
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: dirty mode is transparent — an interleaving of writes with a
// BeginDirty/MergeDirty cycle ends in the same logical contents as applying
// the writes directly.
func TestQuickKVMapDirtyTransparency(t *testing.T) {
	type op struct {
		Key uint64
		Val byte
		Del bool
	}
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			f := func(before, during []op) bool {
				dirty := impl.new()
				plain := impl.new()
				apply := func(m KV, o op) {
					if o.Del {
						m.Delete(o.Key % 32)
					} else {
						m.Put(o.Key%32, []byte{o.Val})
					}
				}
				for _, o := range before {
					apply(dirty, o)
					apply(plain, o)
				}
				if err := dirty.BeginDirty(); err != nil {
					return false
				}
				for _, o := range during {
					apply(dirty, o)
					apply(plain, o)
				}
				if _, err := dirty.MergeDirty(); err != nil {
					return false
				}
				if dirty.NumEntries() != plain.NumEntries() {
					return false
				}
				equal := true
				plain.ForEach(func(k uint64, v []byte) bool {
					got, ok := dirty.Get(k)
					if !ok || !bytes.Equal(got, v) {
						equal = false
						return false
					}
					return true
				})
				return equal
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: splitting a matrix's checkpoint chunks n ways and restoring
// piece j into store j yields partitions that are disjoint and complete by
// row.
func TestQuickMatrixSplit(t *testing.T) {
	f := func(cells []int16, nParts uint8) bool {
		n := int(nParts%5) + 1
		m := NewMatrix()
		want := map[[2]int64]float64{}
		for i, c := range cells {
			r, col := int64(c/16), int64(c%16)
			v := float64(i + 1)
			m.Set(r, col, v)
			want[[2]int64{r, col}] = v
		}
		parts := reshapeByChunks(t, m, n, func() Store { return NewMatrix() })
		total := 0
		for pi, p := range parts {
			mm := p.(*Matrix)
			total += mm.NumEntries()
			for rc, v := range want {
				got := mm.Get(rc[0], rc[1])
				owner := PartitionKey(uint64(rc[0]), n)
				if pi == owner && got != v {
					return false
				}
				if pi != owner && got != 0 {
					return false
				}
			}
		}
		return total == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: vector checkpoint/restore round-trips through arbitrary chunk
// splits.
func TestQuickVectorRoundTrip(t *testing.T) {
	f := func(vals []float64, bound, splitN uint8) bool {
		sn := int(splitN%4) + 1
		if len(vals) > 256 {
			vals = vals[:256]
		}
		v := NewVector(len(vals))
		for i, x := range vals {
			v.Set(i, x)
		}
		chunks, err := streamAll(v, 16*int(bound)+1)
		if err != nil {
			return false
		}
		var all []Chunk
		for _, c := range chunks {
			sub, err := SplitChunk(c, sn)
			if err != nil {
				return false
			}
			all = append(all, sub...)
		}
		r := NewVector(0)
		if err := r.Restore(all); err != nil {
			return false
		}
		if r.Len() != len(vals) {
			return false
		}
		for i, x := range vals {
			if r.Get(i) != x {
				// NaN never compares equal; skip those inputs.
				if x != x {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
