package state

import (
	"fmt"
	"maps"
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

// FuzzStore is the dictionary store's stateful fuzz target. It decodes its
// input as a sequence of operations — Put, Get, Delete, Clear, BeginDirty,
// a base checkpoint stream at a drawn bound, MergeDirty, a delta stream
// then Commit or Abort, and an n-way SplitChunk restore of the chain — and
// runs it over every kvImpls store against a plain-map model. After every
// operation the store's visible contents match the model, and restoring
// the chain committed so far yields the model at its last cut.
func FuzzStore(f *testing.F) {
	for _, seed := range [][]byte{
		// Put, checkpoint, delete, delta commit, split restore: a dropped
		// tombstone resurrects the deleted key.
		{opPut, 1, 3, opPut, 2, 5, opBase, 9, 0, opDelete, 1, opDelta, 40, 0, opRestore, 2},
		// A dirty window: writes, a delete and a Clear behind the cut.
		{opPut, 3, 1, opPut, 4, 2, opBeginDirty, opPut, 3, 7, opDelete, 4, opDelta, 3, 0,
			opClear, opPut, 5, 0, opMerge, opDelta, 200, 0, opRestore, 3},
		// An aborted delta folds back into the next one.
		{opPut, 6, 4, opDelta, 1, 1, opPut, 7, 2, opDelete, 6, opDelta, 1, 0, opRestore, 4, opGet, 6},
		// A base cut inside a dirty window, then an aborted base.
		{opPut, 8, 9, opBeginDirty, opPut, 8, 1, opBase, 2, 0, opMerge, opBase, 5, 1,
			opDelete, 8, opDelta, 9, 0, opRestore, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for _, impl := range kvImpls {
			runStoreOps(t, impl.name, impl.new, ops)
		}
	})
}

// FuzzStore's operation codes: each is one input byte (taken mod opCount)
// followed by its argument bytes.
const (
	opPut        = iota // key, value length
	opGet               // key
	opDelete            // key
	opClear             //
	opBeginDirty        //
	opBase              // bound, abort flag: CheckpointStream + CutDelta
	opMerge             //
	opDelta             // bound, abort flag: DeltaStream
	opRestore           // ways: split the chain n ways and restore it
	opCount
)

// fuzzKeys is the key space FuzzStore draws from. The multiplier spreads
// keys over every uvarint width.
const fuzzKeys = 24

func fuzzKey(b byte) uint64 { return uint64(b%fuzzKeys) * 0x9e3779b97f4a7c15 }

// storeModel is FuzzStore's reference: a plain map per view of the store.
type storeModel struct {
	t      *testing.T
	mk     func() KV
	st     KV
	live   map[uint64]string // what Get sees
	dirty  bool
	frozen map[uint64]string // the base a dirty window froze
	chain  []fuzzEpoch       // committed epochs; a base epoch restarts it
	cut    map[uint64]string // contents at the last committed cut
	serial byte
}

func runStoreOps(t *testing.T, name string, mk func() KV, ops []byte) {
	m := &storeModel{t: t, mk: mk, st: mk(), live: map[uint64]string{}, cut: map[uint64]string{}}
	// Tracking starts on the empty store, so the chain's implicit first
	// base is empty.
	m.st.(DeltaStore).EnableDeltaTracking()
	arg := func(i *int) byte {
		*i++
		if *i < len(ops) {
			return ops[*i]
		}
		return 0
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i] % opCount
		switch op {
		case opPut:
			k, n := fuzzKey(arg(&i)), int(arg(&i)%10)
			v := make([]byte, n)
			for j := range v {
				v[j] = m.serial + byte(j)
			}
			m.serial++
			m.st.Put(k, v)
			m.live[k] = string(v)
		case opGet:
			m.st.Get(fuzzKey(arg(&i)))
		case opDelete:
			k := fuzzKey(arg(&i))
			_, want := m.live[k]
			if got := m.st.Delete(k); got != want {
				t.Fatalf("%s op %d: Delete(%d) = %v, model says %v", name, i, k, got, want)
			}
			delete(m.live, k)
		case opClear:
			m.st.Clear()
			m.live = map[uint64]string{}
		case opBeginDirty:
			err := m.st.BeginDirty()
			if m.dirty {
				if err != ErrDirtyActive {
					t.Fatalf("%s op %d: BeginDirty while dirty = %v", name, i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s op %d: BeginDirty: %v", name, i, err)
			}
			m.dirty, m.frozen = true, maps.Clone(m.live)
		case opMerge:
			_, err := m.st.MergeDirty()
			if !m.dirty {
				if err != ErrDirtyInactive {
					t.Fatalf("%s op %d: MergeDirty while clean = %v", name, i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s op %d: MergeDirty: %v", name, i, err)
			}
			m.dirty, m.frozen = false, nil
		case opBase, opDelta:
			bound, abort := int(arg(&i))*4+1, arg(&i)&1 == 1
			m.epoch(op == opDelta, bound, abort)
		case opRestore:
			m.restoreChain(int(arg(&i)%4) + 1)
		}
		m.checkLive(fmt.Sprintf("%s op %d (%d)", name, i, op))
	}
	m.restoreChain(1)
}

type fuzzEpoch struct {
	delta  bool
	chunks []Chunk
}

// view is the base a checkpoint taken now serialises.
func (m *storeModel) view() map[uint64]string {
	if m.dirty {
		return m.frozen
	}
	return m.live
}

// epoch takes one checkpoint epoch, a base or a delta, commits or aborts
// its cut, and on commit appends it to the chain.
func (m *storeModel) epoch(delta bool, bound int, abort bool) {
	t := m.t
	ds := m.st.(DeltaStore)
	var it ChunkIter
	var err error
	if delta {
		it, err = ds.DeltaStream(bound)
	} else {
		it, err = m.st.CheckpointStream(bound)
		ds.CutDelta()
	}
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if c.Delta != delta || c.Type != TypeKVMap {
			t.Fatalf("stream (delta=%v) yielded chunk Delta=%v Type=%v", delta, c.Delta, c.Type)
		}
	}
	if abort {
		ds.AbortDelta()
		return
	}
	ds.CommitDelta()
	if delta {
		m.chain = append(m.chain, fuzzEpoch{delta, chunks})
	} else {
		m.chain = []fuzzEpoch{{delta, chunks}}
	}
	m.cut = maps.Clone(m.view())
	m.restoreChain(1)
}

// restoreChain splits every committed chunk n ways and restores piece j
// of each epoch, in epoch order, into fresh store j; store j must then
// hold exactly the cut's keys of partition j.
func (m *storeModel) restoreChain(n int) {
	t := m.t
	stores := make([]KV, n)
	for j := range stores {
		stores[j] = m.mk()
	}
	for e, ep := range m.chain {
		groups := make([][]Chunk, n)
		for _, c := range ep.chunks {
			parts, err := SplitChunk(c, n)
			if err != nil {
				t.Fatalf("SplitChunk(%d): %v", n, err)
			}
			for j, p := range parts {
				groups[j] = append(groups[j], p)
			}
		}
		for j, st := range stores {
			var err error
			if ep.delta {
				err = st.(DeltaStore).ApplyDelta(groups[j])
			} else {
				err = st.Restore(groups[j])
			}
			if err != nil {
				t.Fatalf("restore epoch %d part %d/%d: %v", e, j, n, err)
			}
		}
	}
	for j, st := range stores {
		want := map[uint64]string{}
		for k, v := range m.cut {
			if PartitionKey(k, n) == j {
				want[k] = v
			}
		}
		if got := forEachMap(st); !maps.Equal(got, want) {
			t.Fatalf("chain restored %d ways, part %d = %v, want %v", n, j, got, want)
		}
		if got := st.NumEntries(); got != len(want) {
			t.Fatalf("chain restored %d ways, part %d: NumEntries = %d, want %d", n, j, got, len(want))
		}
	}
}

// checkLive compares the store's visible contents with the model: Get and
// NumEntries see the live view, ForEach the (frozen, when dirty) base.
func (m *storeModel) checkLive(at string) {
	t := m.t
	for b := byte(0); b < fuzzKeys; b++ {
		k := fuzzKey(b)
		v, ok := m.st.Get(k)
		w, wok := m.live[k]
		if ok != wok || string(v) != w {
			t.Fatalf("%s: Get(%d) = %q %v, model %q %v", at, k, v, ok, w, wok)
		}
	}
	if got := m.st.NumEntries(); got != len(m.live) {
		t.Fatalf("%s: NumEntries = %d, model %d", at, got, len(m.live))
	}
	if got := forEachMap(m.st); !maps.Equal(got, m.view()) {
		t.Fatalf("%s: ForEach = %v, model base %v", at, got, m.view())
	}
	if m.st.Dirty() != m.dirty {
		t.Fatalf("%s: Dirty = %v, model %v", at, m.st.Dirty(), m.dirty)
	}
}

func forEachMap(st KV) map[uint64]string {
	out := map[uint64]string{}
	st.ForEach(func(k uint64, v []byte) bool {
		out[k] = string(v)
		return true
	})
	return out
}
