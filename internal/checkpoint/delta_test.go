package checkpoint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/state"
)

// mkTracked builds a populated, delta-tracking dictionary store.
func mkTracked(backend string, keys int, val []byte) state.Store {
	var st state.Store
	if backend == "sharded" {
		st = state.NewShardedKVMap(8)
	} else {
		st = state.NewKVMap()
	}
	st.EnableDeltaTracking()
	kv := st.(state.KV)
	for i := 0; i < keys; i++ {
		kv.Put(uint64(i), val)
	}
	return st
}

func storesEqual(t *testing.T, want state.KV, got state.Store) {
	t.Helper()
	gkv := got.(state.KV)
	if wn, gn := want.NumEntries(), gkv.NumEntries(); wn != gn {
		t.Fatalf("entries = %d, want %d", gn, wn)
	}
	want.ForEach(func(k uint64, v []byte) bool {
		gv, ok := gkv.Get(k)
		if !ok || string(gv) != string(v) {
			t.Fatalf("key %d = %q,%v want %q", k, gv, ok, v)
		}
		return true
	})
}

// TestDeltaChainSaveRestore drives base + delta epochs through the full
// backup protocol for both backends and restores across backends and
// across n-way rescales — the crash-recovery acceptance path.
func TestDeltaChainSaveRestore(t *testing.T) {
	for _, backend := range []string{"kvmap", "sharded"} {
		t.Run(backend, func(t *testing.T) {
			_, b := newBackupEnv(t, 2, 0)
			st := mkTracked(backend, 2000, []byte("v0"))
			kv := st.(state.KV)

			res, err := async(st, Meta{SE: "kv/0", Epoch: 1}, b)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta.Delta {
				t.Fatal("base epoch reported as delta")
			}

			// Three delta epochs: updates, deletes, inserts.
			for e := uint64(2); e <= 4; e++ {
				for i := uint64(0); i < 20; i++ {
					kv.Put(i+e*100, []byte(fmt.Sprintf("e%d", e)))
				}
				kv.Delete(e) // keys 2,3,4 get tombstoned across the chain
				kv.Put(100000+e, []byte("ins"))
				res, err := async(st, Meta{SE: "kv/0", Epoch: e, Delta: true}, b)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Meta.Delta || res.Bytes <= 0 {
					t.Fatalf("delta result = %+v", res)
				}
			}
			meta, ok := b.Latest("kv/0")
			if !ok || len(meta.Chain) != 4 {
				t.Fatalf("chain = %+v", meta.Chain)
			}

			// Restore into 1, 2 and 3 instances; reassemble and compare with
			// the live store; also cross-restore into the other backend.
			for _, n := range []int{1, 2, 3} {
				sets, meta, err := b.Restore("kv/0", n)
				if err != nil {
					t.Fatal(err)
				}
				// Reassemble into the opposite backend to prove the chain
				// is interchangeable across dictionary stores.
				var whole state.KV
				if backend == "sharded" {
					whole = state.NewKVMap()
				} else {
					whole = state.NewShardedKVMap(4)
				}
				for j, set := range sets {
					inst, err := restoreNew(meta, set)
					if err != nil {
						t.Fatal(err)
					}
					inst.(state.KV).ForEach(func(k uint64, v []byte) bool {
						if state.PartitionKey(k, n) != j {
							t.Errorf("key %d restored to wrong instance %d/%d", k, j, n)
							return false
						}
						whole.Put(k, v)
						return true
					})
				}
				storesEqual(t, kv, whole)
			}
		})
	}
}

// TestDeltaBytesRatio is the headline acceptance check: on a 100k-key
// store with 1% churn per epoch, a delta epoch writes >= 10x fewer payload
// bytes than a full epoch, on both backends.
func TestDeltaBytesRatio(t *testing.T) {
	keys := 100_000
	if testing.Short() {
		keys = 20_000
	}
	for _, backend := range []string{"kvmap", "sharded"} {
		t.Run(backend, func(t *testing.T) {
			_, b := newBackupEnv(t, 2, 0)
			st := mkTracked(backend, keys, []byte("sixteen-byte-val"))
			kv := st.(state.KV)
			base, err := async(st, Meta{SE: "kv/0", Epoch: 1}, b)
			if err != nil {
				t.Fatal(err)
			}
			// 1% churn.
			for i := 0; i < keys/100; i++ {
				kv.Put(uint64(i*97%keys), []byte("sixteen-byte-new"))
			}
			delta, err := async(st, Meta{SE: "kv/0", Epoch: 2, Delta: true}, b)
			if err != nil {
				t.Fatal(err)
			}
			if delta.Bytes*10 > base.Bytes {
				t.Fatalf("delta wrote %d bytes vs full %d: less than 10x saving", delta.Bytes, base.Bytes)
			}
			t.Logf("full=%dB delta=%dB ratio=%.1fx", base.Bytes, delta.Bytes,
				float64(base.Bytes)/float64(delta.Bytes))
		})
	}
}

// TestChainGC: a superseded chain is freed only after the next base
// commit; mid-chain delta commits free nothing but the stale buffer
// object; Forget frees a whole chain.
func TestChainGC(t *testing.T) {
	cl, b := newBackupEnv(t, 2, 0)
	st := mkTracked("kvmap", 500, []byte("v"))
	kv := st.(state.KV)

	onDisk := func() []string {
		var names []string
		for i := 0; i < 2; i++ {
			names = append(names, cl.Node(i).Disk.List()...)
		}
		return names
	}
	countEpoch := func(epoch uint64) int {
		n := 0
		for _, name := range onDisk() {
			if strings.HasPrefix(name, fmt.Sprintf("ckpt/kv/0/%d/", epoch)) {
				n++
			}
		}
		return n
	}

	chunks := map[uint64]int{} // chunk objects per epoch
	tipChunks := func() int {
		m, _ := b.Latest("kv/0")
		return m.Chunks
	}
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
		t.Fatal(err)
	}
	chunks[1] = tipChunks()
	for e := uint64(2); e <= 3; e++ {
		kv.Put(e, []byte("x"))
		if _, err := async(st, Meta{SE: "kv/0", Epoch: e, Delta: true}, b); err != nil {
			t.Fatal(err)
		}
		chunks[e] = tipChunks()
	}
	// Whole chain must remain restorable: epochs 1-3 chunks on disk.
	for e := uint64(1); e <= 3; e++ {
		want := chunks[e]
		if e == 3 {
			want++ // chain tip also holds the buffers object
		}
		if got := countEpoch(e); got != want {
			t.Fatalf("epoch %d objects = %d, want %d (disk: %v)", e, got, want, onDisk())
		}
	}

	// A new base (compaction) supersedes the chain: only epoch 4 survives.
	kv.Put(99, []byte("x"))
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 4}, b); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		if got := countEpoch(e); got != 0 {
			t.Fatalf("superseded epoch %d still has %d objects: %v", e, got, onDisk())
		}
	}
	if got, want := countEpoch(4), tipChunks()+1; got != want {
		t.Fatalf("epoch 4 objects = %d, want %d", got, want)
	}

	// Forget mid-chain frees everything.
	kv.Put(100, []byte("x"))
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 5, Delta: true}, b); err != nil {
		t.Fatal(err)
	}
	b.Forget("kv/0")
	if got := len(onDisk()); got != 0 {
		t.Fatalf("%d objects survived Forget: %v", got, onDisk())
	}
}

// TestDeltaSaveAbort covers mid-chain failures: a delta save that aborts
// (no base chain, stale epoch, no targets) writes nothing, keeps the
// manifest chain intact, and — because AbortDelta refolds the cut — the
// retried epoch still restores identical state.
func TestDeltaSaveAbort(t *testing.T) {
	cl, b := newBackupEnv(t, 2, 0)
	st := mkTracked("kvmap", 300, []byte("v"))
	kv := st.(state.KV)

	// Delta without any base chain: validated before any disk write.
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 1, Delta: true}, b); err == nil {
		t.Fatal("delta without base should fail")
	}
	if got := len(cl.Node(0).Disk.List()) + len(cl.Node(1).Disk.List()); got != 0 {
		t.Fatalf("aborted delta left %d objects on disk", got)
	}

	if _, err := async(st, Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
		t.Fatal(err)
	}
	kv.Put(7, []byte("seven"))
	kv.Delete(8)

	// Stale epoch (equal to the chain tip) must abort without touching disk.
	before := append(cl.Node(0).Disk.List(), cl.Node(1).Disk.List()...)
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 1, Delta: true}, b); err == nil {
		t.Fatal("stale delta epoch should fail")
	}
	after := append(cl.Node(0).Disk.List(), cl.Node(1).Disk.List()...)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("aborted delta mutated disks: %v -> %v", before, after)
	}
	meta, _ := b.Latest("kv/0")
	if len(meta.Chain) != 1 {
		t.Fatalf("chain mutated by aborted save: %+v", meta.Chain)
	}

	// The aborted cut was refolded: the retried epoch carries the changes
	// and the restored state matches the live store.
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 2, Delta: true}, b); err != nil {
		t.Fatal(err)
	}
	sets, meta2, err := b.Restore("kv/0", 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := restoreNew(meta2, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, kv, inst)
	if v, _ := inst.(state.KV).Get(7); string(v) != "seven" {
		t.Fatalf("retried delta lost update: %q", v)
	}
	if _, ok := inst.(state.KV).Get(8); ok {
		t.Fatal("retried delta lost tombstone")
	}
}

// TestShouldDeltaPolicy pins the one compaction rule at its boundary: the
// next epoch may be a delta while the chain's delta bytes stay under half
// its base bytes, and no number of small deltas forces a base.
func TestShouldDeltaPolicy(t *testing.T) {
	chain := func(base int64, deltas ...int64) []EpochRef {
		c := []EpochRef{{Epoch: 1, Chunks: 1, Bytes: base}}
		for i, n := range deltas {
			c = append(c, EpochRef{Epoch: uint64(i + 2), Chunks: 1, Bytes: n, Delta: true})
		}
		return c
	}
	for _, tc := range []struct {
		name  string
		chain []EpochRef
		want  bool
	}{
		{"no chain", nil, false},
		{"no deltas", chain(100), true},
		{"just under half", chain(100, 49), true},
		{"exactly half", chain(100, 50), false},
		{"odd base", chain(101, 50), true},
		{"summed under half", chain(100, 25, 24), true},
		{"summed to half", chain(100, 25, 25), false},
		{"many small deltas", chain(100, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), true},
		{"empty base", chain(0), false},
		{"starts at a delta", []EpochRef{{Epoch: 2, Chunks: 1, Bytes: 1, Delta: true}}, false},
	} {
		if got := ShouldDelta(tc.chain); got != tc.want {
			t.Errorf("%s: ShouldDelta = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEpochNumberReuseAfterReset reproduces the scaling hazard: an SE
// instance is rebuilt (epoch counter restarts), so its fresh base reuses an
// epoch number the superseded chain also used. The chain GC must not
// delete the just-committed epoch's objects.
func TestEpochNumberReuseAfterReset(t *testing.T) {
	_, b := newBackupEnv(t, 2, 0)
	st := mkTracked("kvmap", 400, []byte("old"))
	kv := st.(state.KV)

	// Old incarnation: chain {1, 2, 3}.
	if _, err := async(st, Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
		t.Fatal(err)
	}
	for e := uint64(2); e <= 3; e++ {
		kv.Put(e, []byte("x"))
		if _, err := async(st, Meta{SE: "kv/0", Epoch: e, Delta: true}, b); err != nil {
			t.Fatal(err)
		}
	}

	// New incarnation (as after a repartition): fresh store, epoch restarts
	// at 1, first checkpoint is a base with a different chunk count.
	st2 := mkTracked("kvmap", 150, []byte("new"))
	if _, err := async(st2, Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
		t.Fatal(err)
	}

	sets, meta, err := b.Restore("kv/0", 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := restoreNew(meta, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, st2.(state.KV), inst)
}
