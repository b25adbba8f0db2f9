package state

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
)

// FuzzChunk feeds arbitrary bytes to every store type's chunk decoders, as
// a base chunk (Restore) and as a delta chunk (ApplyDelta), and to
// SplitChunk for both. No input may panic or fail with anything but
// ErrBadChunk, or make a restore allocate more than its bytes can justify
// (nothing may be sized from a count or a length the bytes cannot hold).
// The whole chunk applies exactly when its n-way split applies, and then
// both restore the same contents. A dictionary value is any bytes, so its
// split also succeeds exactly when the whole chunk applies.
func FuzzChunk(f *testing.F) {
	for _, st := range []Store{NewKVMap(), NewMatrix(), NewVector(0)} {
		st.EnableDeltaTracking()
		for k := 0; k < 20; k++ {
			fuzzChunkWrite(st, k, float64(k)+0.5)
		}
		st.CutDelta()
		st.CommitDelta()
		fuzzChunkWrite(st, 3, -1)
		st.(interface{ Clear() }).Clear()
		fuzzChunkWrite(st, 5, 2)
		for _, delta := range []bool{false, true} {
			it, err := st.CheckpointStream(64)
			if delta {
				it, err = st.DeltaStream(64)
			}
			if err != nil {
				f.Fatal(err)
			}
			chunks, err := Drain(it)
			if err != nil {
				f.Fatal(err)
			}
			for i, c := range chunks {
				f.Add(c.Data, uint8(i))
			}
		}
	}
	f.Add([]byte{}, uint8(1))
	// One entry whose value length is 2^64-1: the bounds check must reject
	// it rather than wrap and size a slice from it.
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(3))
	// An entry count of 2^62 with no entries behind it.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		ways := int(n%8) + 1
		for _, typ := range []StoreType{TypeKVMap, TypeMatrix, TypeVector} {
			for _, delta := range []bool{false, true} {
				checkChunk(t, Chunk{Type: typ, Delta: delta, Data: data}, ways)
			}
		}
	})
}

// fuzzChunkWrite writes x under key k in any store view: a dictionary
// value, a matrix row's cell, or a vector element (the vector grows to
// hold it).
func fuzzChunkWrite(st Store, k int, x float64) {
	switch s := st.(type) {
	case *KVMap:
		s.Put(uint64(k), []byte(fmt.Sprint(x)))
	case *Matrix:
		s.Set(int64(k), int64(k)%3-1, x)
	case *Vector:
		_ = s.Resize(k + 1)
		s.Set(k, x)
	}
}

// fuzzBase is the store every FuzzChunk input applies onto, so tombstones
// have keys to delete.
func fuzzBase(typ StoreType) Store {
	st, _ := New(typ)
	for k := 0; k < 8; k++ {
		fuzzChunkWrite(st, k, float64(k))
	}
	return st
}

func checkChunk(t *testing.T, c Chunk, ways int) {
	at := fmt.Sprintf("%v delta=%v", c.Type, c.Delta)
	apply := func(st Store, chunks []Chunk) error {
		if c.Delta {
			return st.ApplyDelta(chunks)
		}
		return st.Restore(chunks)
	}
	whole := fuzzBase(c.Type)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	werr := apply(whole, []Chunk{c})
	runtime.ReadMemStats(&after)
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(c.Data)); grew > bound {
		t.Fatalf("%s: a %d-byte chunk allocated %d bytes (bound %d)", at, len(c.Data), grew, bound)
	}
	parts, serr := SplitChunk(c, ways)
	for _, err := range []error{werr, serr} {
		if err != nil && !errors.Is(err, ErrBadChunk) {
			t.Fatalf("%s: error %v, want ErrBadChunk", at, err)
		}
	}
	if c.Type == TypeKVMap && (werr == nil) != (serr == nil) {
		t.Fatalf("%s: whole chunk err %v, split err %v", at, werr, serr)
	}
	split, perr := fuzzBase(c.Type), serr
	if serr == nil {
		if len(parts) != ways {
			t.Fatalf("%s: split into %d parts, want %d", at, len(parts), ways)
		}
		perr = apply(split, parts)
	}
	if (werr == nil) != (perr == nil) {
		t.Fatalf("%s: whole chunk err %v, split parts err %v", at, werr, perr)
	}
	if werr == nil && !maps.Equal(chunkContents(whole), chunkContents(split)) {
		t.Fatalf("%s: split restores %v, whole %v", at, chunkContents(split), chunkContents(whole))
	}
}

// chunkContents renders a store's live entries.
func chunkContents(st Store) map[uint64]string {
	out := map[uint64]string{}
	switch s := st.(type) {
	case *KVMap:
		s.scan(func(k uint64, v []byte) bool { out[k] = string(v); return true })
	case *Matrix:
		s.scan(func(k uint64, row map[int64]float64) bool { out[k] = rowText(row); return true })
	case *Vector:
		s.scan(func(k uint64, x float64) bool { out[k] = fmt.Sprint(x); return true })
	}
	return out
}

// FuzzStore is the stores' stateful fuzz target. It decodes its input as a
// sequence of operations — four writes, Clear, BeginDirty, a base
// checkpoint stream at a drawn bound, MergeDirty, a delta stream then
// Commit or Abort, and an n-way SplitChunk restore of the chain — and runs
// it over every store view (the dictionary at one stripe and at eight,
// Matrix, Vector) against the view's plain model. After every operation
// the store's visible contents match the model, and restoring the chain
// committed so far yields the model at its last cut.
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
		// A vector sized, cut, cleared and resized: the delta's zeros are
		// what clear the restored vector, which keeps its length.
		{opDelete, 5, opPut, 2, 1, opBase, 30, 0, opClear, opDelete, 3, opGet, 1, opDelta, 30, 0, opRestore, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for _, v := range fuzzViews {
			runStoreOps(t, v, ops)
		}
	})
}

// FuzzStore's operation codes: each is one input byte (taken mod opCount)
// followed by its argument bytes. The four writes mean what each view's
// model says (fuzzModel.write); the names are the dictionary's.
const (
	opPut        = iota // a, b
	opGet               // a
	opDelete            // a
	opClear             //
	opBeginDirty        //
	opBase              // bound, abort flag: CheckpointStream + CutDelta
	opMerge             //
	opDelta             // bound, abort flag: DeltaStream
	opRestore           // ways: split the chain n ways and restore it
	opCount
)

// fuzzKeys is the key space FuzzStore draws from. The multiplier spreads
// keys over every uvarint width (and rows over both signs).
const fuzzKeys = 24

func fuzzKey(b byte) uint64 { return uint64(b%fuzzKeys) * 0x9e3779b97f4a7c15 }

// fuzzView is one store view as FuzzStore drives it.
type fuzzView struct {
	name  string
	new   func() Store
	model func() fuzzModel
}

var fuzzViews = []fuzzView{
	{"single-lock", func() Store { return NewKVMap() }, func() fuzzModel { return kvModel{} }},
	{"sharded", func() Store { return NewShardedKVMap(8) }, func() fuzzModel { return kvModel{} }},
	{"matrix", func() Store { return NewMatrix() }, func() fuzzModel { return matrixModel{} }},
	{"vector", func() Store { return NewVector(0) }, func() fuzzModel { return vectorModel{} }},
}

// fuzzModel is a view's plain model and the map between it and the store.
type fuzzModel interface {
	// write applies one write op (opPut, opGet, opDelete or opClear) with
	// its argument bytes to st and to the model; serial varies the values.
	write(t *testing.T, st Store, op, a, b byte, serial int, dirty bool)
	// entries renders the model as store entries: entry key -> the text a
	// read of it shows ("" when reads cannot see it, a zero element).
	entries() map[uint64]string
	// count bounds the NumEntries of a store holding the model's entries
	// whose keys keep accepts, as a split piece of its checkpoint chain
	// restores: a piece of a vector is as long as the largest index its
	// chain carried, which the cut alone does not fix.
	count(keep func(uint64) bool) (lo, hi int)
	// read renders what st's reads show over the fuzz key space the same
	// way, checking the view's whole-store reads against the model.
	read(t *testing.T, st Store, whole fuzzModel) map[uint64]string
	clone() fuzzModel
}

// kvModel models the dictionary: its writes are Put, a read-only Get, and
// Delete; Clear wipes it.
type kvModel map[uint64]string

func (m kvModel) write(t *testing.T, st Store, op, a, b byte, serial int, _ bool) {
	kv := st.(KV)
	switch op {
	case opPut:
		k, v := fuzzKey(a), make([]byte, b%10)
		for j := range v {
			v[j] = byte(serial + j)
		}
		kv.Put(k, v)
		m[k] = string(v)
	case opGet:
		kv.Get(fuzzKey(a))
	case opDelete:
		k := fuzzKey(a)
		if _, want := m[k]; kv.Delete(k) != want {
			t.Fatalf("Delete(%d) = %v, model says %v", k, !want, want)
		}
		delete(m, k)
	case opClear:
		kv.Clear()
		clear(m)
	}
}

func (m kvModel) entries() map[uint64]string {
	text := map[uint64]string{}
	for k, v := range m {
		text[k] = "=" + v
	}
	return text
}

func (m kvModel) count(keep func(uint64) bool) (int, int) {
	n := 0
	for k := range m {
		if keep(k) {
			n++
		}
	}
	return n, n
}

func (kvModel) read(_ *testing.T, st Store, _ fuzzModel) map[uint64]string {
	out := map[uint64]string{}
	for b := byte(0); b < fuzzKeys; b++ {
		if v, ok := st.(KV).Get(fuzzKey(b)); ok {
			out[fuzzKey(b)] = "=" + string(v)
		}
	}
	return out
}

func (m kvModel) clone() fuzzModel { return maps.Clone(m) }

// matrixModel models the Matrix: Set, Get (checked against the model) and
// Add; Clear wipes it. Rows are the entries. Written values are never 0, so
// a cell reads 0 exactly when it is absent.
type matrixModel map[int64]map[int64]float64

func fuzzRow(a byte) int64 { return int64(fuzzKey(a)) }
func fuzzCol(b byte) int64 { return int64(b%5) - 2 }

func (m matrixModel) write(t *testing.T, st Store, op, a, b byte, serial int, _ bool) {
	mx := st.(*Matrix)
	r, c := fuzzRow(a), fuzzCol(b)
	set := func(x float64) {
		if m[r] == nil {
			m[r] = map[int64]float64{}
		}
		m[r][c] = x
	}
	switch op {
	case opPut:
		mx.Set(r, c, float64(serial)+1)
		set(float64(serial) + 1)
	case opGet:
		if got, want := mx.Get(r, fuzzCol(a)), m[r][fuzzCol(a)]; got != want {
			t.Fatalf("Get(%d, %d) = %v, model %v", r, fuzzCol(a), got, want)
		}
	case opDelete:
		c = fuzzCol(a >> 3)
		want := m[r][c] + 0.5
		if got := mx.Add(r, c, 0.5); got != want {
			t.Fatalf("Add(%d, %d) = %v, model %v", r, c, got, want)
		}
		set(want)
	case opClear:
		mx.Clear()
		clear(m)
	}
}

func (m matrixModel) entries() map[uint64]string {
	text := map[uint64]string{}
	for r, row := range m {
		text[uint64(r)] = rowText(row)
	}
	return text
}

func (m matrixModel) count(keep func(uint64) bool) (int, int) {
	n := 0
	for r, row := range m {
		if keep(uint64(r)) {
			n += len(row)
		}
	}
	return n, n
}

func rowText(row map[int64]float64) string {
	var s string
	for _, c := range slices.Sorted(maps.Keys(row)) {
		s += fmt.Sprintf("%d=%v;", c, row[c])
	}
	return s
}

func (matrixModel) read(t *testing.T, st Store, _ fuzzModel) map[uint64]string {
	mx := st.(*Matrix)
	out := map[uint64]string{}
	for b := byte(0); b < fuzzKeys; b++ {
		r := fuzzRow(b)
		row := mx.RowVec(r)
		for c, x := range row {
			if got := mx.Get(r, c); got != x {
				t.Fatalf("Get(%d, %d) = %v, RowVec says %v", r, c, got, x)
			}
		}
		if len(row) > 0 {
			out[uint64(r)] = rowText(row)
		}
	}
	return out
}

func (m matrixModel) clone() fuzzModel {
	out := matrixModel{}
	for r, row := range m {
		out[r] = maps.Clone(row)
	}
	return out
}

// vectorModel models the Vector: Set, Add, and Resize or AddScaled; Clear
// zeroes it. Elements are the entries; writes address elements inside the
// vector, as callers do after sizing it.
type vectorModel map[int]float64

func (m vectorModel) write(t *testing.T, st Store, op, a, b byte, serial int, dirty bool) {
	v := st.(*Vector)
	i := -1
	if len(m) > 0 {
		i = int(a) % len(m)
	}
	switch op {
	case opPut:
		if i >= 0 {
			v.Set(i, float64(serial)+1)
			m[i] = float64(serial) + 1
		}
	case opGet:
		if i >= 0 {
			want := m[i] + 0.5
			if got := v.Add(i, 0.5); got != want {
				t.Fatalf("Add(%d) = %v, model %v", i, got, want)
			}
			m[i] = want
		}
	case opDelete:
		if a&1 == 1 {
			n := int(a>>1) % fuzzKeys
			err := v.Resize(n)
			if dirty {
				if err != ErrDirtyActive {
					t.Fatalf("Resize while dirty = %v", err)
				}
				break
			}
			if err != nil {
				t.Fatalf("Resize(%d): %v", n, err)
			}
			for j := len(m); j < n; j++ {
				m[j] = 0
			}
			break
		}
		x := make([]float64, int(a>>1)%(len(m)+1))
		for j := range x {
			x[j] = float64(j + serial%3)
			m[j] += 0.25 * x[j]
		}
		v.AddScaled(x, 0.25)
	case opClear:
		v.Clear()
		for j := range m {
			m[j] = 0
		}
	}
}

func (m vectorModel) entries() map[uint64]string {
	text := map[uint64]string{}
	for i, x := range m {
		text[uint64(i)] = elemText(x)
	}
	return text
}

func (m vectorModel) count(keep func(uint64) bool) (int, int) {
	lo := 0
	for i, x := range m {
		if keep(uint64(i)) && (x != 0 || i == len(m)-1) {
			lo = max(lo, i+1)
		}
	}
	return lo, len(m)
}

// elemText renders an element as a read shows it: a zero element reads
// like an absent one.
func elemText(x float64) string {
	if x == 0 {
		return ""
	}
	return fmt.Sprint(x)
}

func (vectorModel) read(t *testing.T, st Store, whole fuzzModel) map[uint64]string {
	v := st.(*Vector)
	out := map[uint64]string{}
	for i := 0; i < fuzzKeys; i++ {
		if s := elemText(v.Get(i)); s != "" {
			out[uint64(i)] = s
		}
	}
	if m, ok := whole.(vectorModel); ok {
		snap := v.Snapshot()
		if v.Len() != len(m) || len(snap) != len(m) {
			t.Fatalf("Len = %d, Snapshot has %d, model %d", v.Len(), len(snap), len(m))
		}
		for i, x := range snap {
			if x != m[i] {
				t.Fatalf("Snapshot[%d] = %v, model %v", i, x, m[i])
			}
		}
	}
	return out
}

func (m vectorModel) clone() fuzzModel { return maps.Clone(m) }

// storeModel drives one view: the live model, the base a dirty window
// froze, the committed chain and the model at its last cut.
type storeModel struct {
	t      *testing.T
	v      fuzzView
	st     Store
	live   fuzzModel
	dirty  bool
	frozen fuzzModel
	chain  []fuzzEpoch // committed epochs; a base epoch restarts it
	cut    fuzzModel
}

func runStoreOps(t *testing.T, v fuzzView, ops []byte) {
	m := &storeModel{t: t, v: v, st: v.new(), live: v.model(), cut: v.model()}
	// Tracking starts on the empty store, so the chain's implicit first
	// base is empty.
	m.st.EnableDeltaTracking()
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
			a, b := arg(&i), arg(&i)
			m.live.write(t, m.st, op, a, b, i, m.dirty)
		case opGet, opDelete:
			m.live.write(t, m.st, op, arg(&i), 0, i, m.dirty)
		case opClear:
			m.live.write(t, m.st, op, 0, 0, i, m.dirty)
		case opBeginDirty:
			err := m.st.BeginDirty()
			if m.dirty {
				if err != ErrDirtyActive {
					t.Fatalf("%s op %d: BeginDirty while dirty = %v", v.name, i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s op %d: BeginDirty: %v", v.name, i, err)
			}
			m.dirty, m.frozen = true, m.live.clone()
		case opMerge:
			_, err := m.st.MergeDirty()
			if !m.dirty {
				if err != ErrDirtyInactive {
					t.Fatalf("%s op %d: MergeDirty while clean = %v", v.name, i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s op %d: MergeDirty: %v", v.name, i, err)
			}
			m.dirty, m.frozen = false, nil
		case opBase, opDelta:
			bound, abort := int(arg(&i))*4+1, arg(&i)&1 == 1
			m.epoch(op == opDelta, bound, abort)
		case opRestore:
			m.restoreChain(int(arg(&i)%4) + 1)
		}
		m.checkLive(fmt.Sprintf("%s op %d (%d)", v.name, i, op))
	}
	m.restoreChain(1)
}

type fuzzEpoch struct {
	delta  bool
	chunks []Chunk
}

// view is the base a checkpoint taken now serialises.
func (m *storeModel) view() fuzzModel {
	if m.dirty {
		return m.frozen
	}
	return m.live
}

// epoch takes one checkpoint epoch, a base or a delta, commits or aborts
// its cut, and on commit appends it to the chain.
func (m *storeModel) epoch(delta bool, bound int, abort bool) {
	t := m.t
	var it ChunkIter
	var err error
	if delta {
		it, err = m.st.DeltaStream(bound)
	} else {
		it, err = m.st.CheckpointStream(bound)
		m.st.CutDelta()
	}
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if c.Delta != delta || c.Type != m.st.Type() {
			t.Fatalf("%s stream (delta=%v) yielded chunk Delta=%v Type=%v", m.v.name, delta, c.Delta, c.Type)
		}
	}
	if abort {
		m.st.AbortDelta()
		return
	}
	m.st.CommitDelta()
	if delta {
		m.chain = append(m.chain, fuzzEpoch{delta, chunks})
	} else {
		m.chain = []fuzzEpoch{{delta, chunks}}
	}
	m.cut = m.view().clone()
	m.restoreChain(1)
}

// restoreChain splits every committed chunk n ways and restores piece j
// of each epoch, in epoch order, into fresh store j; store j must then
// hold exactly the cut's entries of partition j.
func (m *storeModel) restoreChain(n int) {
	t := m.t
	stores := make([]Store, n)
	for j := range stores {
		stores[j] = m.v.new()
	}
	for e, ep := range m.chain {
		groups := make([][]Chunk, n)
		for _, c := range ep.chunks {
			parts, err := SplitChunk(c, n)
			if err != nil {
				t.Fatalf("%s: SplitChunk(%d): %v", m.v.name, n, err)
			}
			for j, p := range parts {
				groups[j] = append(groups[j], p)
			}
		}
		for j, st := range stores {
			var err error
			if ep.delta {
				err = st.ApplyDelta(groups[j])
			} else {
				err = st.Restore(groups[j])
			}
			if err != nil {
				t.Fatalf("%s: restore epoch %d part %d/%d: %v", m.v.name, e, j, n, err)
			}
		}
	}
	text := m.cut.entries()
	for j, st := range stores {
		want := map[uint64]string{}
		for k, s := range text {
			if PartitionKey(k, n) == j && s != "" {
				want[k] = s
			}
		}
		lo, hi := m.cut.count(func(k uint64) bool { return PartitionKey(k, n) == j })
		var whole fuzzModel
		if n == 1 {
			whole = m.cut
		}
		if got := m.cut.read(t, st, whole); !maps.Equal(got, want) {
			t.Fatalf("%s: chain restored %d ways, part %d = %v, want %v", m.v.name, n, j, got, want)
		}
		if got := st.NumEntries(); got < lo || got > hi {
			t.Fatalf("%s: chain restored %d ways, part %d: NumEntries = %d, want %d..%d", m.v.name, n, j, got, lo, hi)
		}
		if kv, ok := st.(KV); ok {
			if got := forEachMap(kv); !maps.Equal(got, partKV(m.cut.(kvModel), n, j)) {
				t.Fatalf("%s: chain restored %d ways, part %d: ForEach = %v", m.v.name, n, j, got)
			}
		}
	}
}

// partKV is partition j of n of a dictionary model.
func partKV(m kvModel, n, j int) map[uint64]string {
	out := map[uint64]string{}
	for k, v := range m {
		if PartitionKey(k, n) == j {
			out[k] = v
		}
	}
	return out
}

// checkLive compares the store's visible contents with the model: reads
// and NumEntries see the live view, a dictionary's ForEach the (frozen,
// when dirty) base.
func (m *storeModel) checkLive(at string) {
	t := m.t
	want := map[uint64]string{}
	for k, s := range m.live.entries() {
		if s != "" {
			want[k] = s
		}
	}
	wantN, _ := m.live.count(func(uint64) bool { return true })
	if got := m.live.read(t, m.st, m.live); !maps.Equal(got, want) {
		t.Fatalf("%s: reads = %v, model %v", at, got, want)
	}
	if got := m.st.NumEntries(); got != wantN {
		t.Fatalf("%s: NumEntries = %d, model %d", at, got, wantN)
	}
	if kv, ok := m.st.(KV); ok {
		if got, base := forEachMap(kv), map[uint64]string(m.view().(kvModel)); !maps.Equal(got, base) {
			t.Fatalf("%s: ForEach = %v, model base %v", at, got, base)
		}
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
