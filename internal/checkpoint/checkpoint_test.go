package checkpoint

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/state"
)

func newBackupEnv(t *testing.T, m int, diskBW int64) (*cluster.Cluster, *Backup) {
	t.Helper()
	cl := cluster.New(m, cluster.Config{DiskWriteBW: diskBW, DiskReadBW: diskBW})
	targets := make([]*cluster.Node, m)
	for i := 0; i < m; i++ {
		targets[i] = cl.Node(i)
	}
	return cl, NewBackup(cl, targets)
}

func populatedKV(n int) *state.KVMap {
	kv := state.NewKVMap()
	for i := uint64(0); i < uint64(n); i++ {
		kv.Put(i, []byte(fmt.Sprintf("value-%d", i)))
	}
	return kv
}

// streamed serialises a store's base as chunks of at most maxBytes.
func streamed(t *testing.T, st state.Store, maxBytes int) []state.Chunk {
	t.Helper()
	it, err := state.StreamChunks(st, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return mustDrain(t, it)
}

// async runs one whole modelled-disk checkpoint: Open, then SaveStream;
// meta.Delta selects an incremental epoch.
func async(st state.Store, meta Meta, b *Backup) (Result, error) {
	s, err := b.Open(st, meta.Delta)
	if err != nil {
		return Result{}, err
	}
	return b.SaveStream(s, meta)
}

// restoreNew rebuilds a recovering instance into a fresh store of the
// checkpoint's recorded type: the base group, then each delta epoch in
// chain order.
func restoreNew(meta Meta, set RestoreSet) (state.Store, error) {
	st, err := state.New(meta.StoreType)
	if err == nil {
		err = st.Restore(set.Base)
	}
	for _, d := range set.Deltas {
		if err == nil && len(d) > 0 {
			err = st.ApplyDelta(d)
		}
	}
	return st, err
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	_, b := newBackupEnv(t, 2, 0)
	kv := populatedKV(500)
	chunks := streamed(t, kv, 1024)
	meta := Meta{
		SE: "kv/0", Epoch: 1, StoreType: state.TypeKVMap,
		TE: []byte("te state"),
	}
	if _, err := b.Save(meta, chunks); err != nil {
		t.Fatal(err)
	}

	got, ok := b.Latest("kv/0")
	if !ok || got.Epoch != 1 || got.Chunks != len(chunks) || len(chunks) < 4 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}

	for _, n := range []int{1, 2, 3} {
		sets, meta2, err := b.Restore("kv/0", n)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != n {
			t.Fatalf("restore sets = %d, want %d", len(sets), n)
		}
		if string(meta2.TE) != "te state" {
			t.Fatalf("TE state = %q", meta2.TE)
		}
		total := 0
		for j, g := range sets {
			st, err := restoreNew(meta2, g)
			if err != nil {
				t.Fatal(err)
			}
			kvp := st.(*state.KVMap)
			total += kvp.NumEntries()
			kvp.ForEach(func(k uint64, _ []byte) bool {
				if state.PartitionKey(k, n) != j {
					t.Errorf("key %d restored to wrong instance %d/%d", k, j, n)
					return false
				}
				return true
			})
		}
		if total != 500 {
			t.Fatalf("n=%d restored %d entries, want 500", n, total)
		}
	}
}

func TestRestoreMissing(t *testing.T) {
	_, b := newBackupEnv(t, 1, 0)
	if _, _, err := b.Restore("nope", 1); err == nil {
		t.Fatal("restore of unknown SE should fail")
	}
}

func TestSaveGCsPreviousEpoch(t *testing.T) {
	cl, b := newBackupEnv(t, 2, 0)
	kv := populatedKV(100)
	chunks := streamed(t, kv, 256)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		if _, err := b.Save(Meta{SE: "kv/0", Epoch: epoch, StoreType: state.TypeKVMap}, chunks); err != nil {
			t.Fatal(err)
		}
	}
	// Only the latest epoch's objects should remain on disk: chunk c on
	// disk c mod 2, the buffers on disk 0.
	for i := 0; i < 2; i++ {
		live := map[string]bool{bufName("kv/0", 3): i == 0}
		for c := i; c < len(chunks); c += 2 {
			live[chunkName("kv/0", 3, c)] = true
		}
		for _, name := range cl.Node(i).Disk.List() {
			if !live[name] {
				t.Errorf("stale object %q on disk %d", name, i)
			}
		}
	}
}

func TestForget(t *testing.T) {
	cl, b := newBackupEnv(t, 1, 0)
	kv := populatedKV(10)
	chunks := streamed(t, kv, 1<<20)
	if _, err := b.Save(Meta{SE: "kv/0", Epoch: 1, StoreType: state.TypeKVMap}, chunks); err != nil {
		t.Fatal(err)
	}
	b.Forget("kv/0")
	if _, ok := b.Latest("kv/0"); ok {
		t.Fatal("manifest survived Forget")
	}
	if got := len(cl.Node(0).Disk.List()); got != 0 {
		t.Fatalf("%d objects survived Forget", got)
	}
}

// TestBuffersRoundTrip: the buffers object, which holds the colocated TE
// state, comes back byte for byte from the chain tip, and the manifest
// keeps no copy of it.
func TestBuffersRoundTrip(t *testing.T) {
	_, b := newBackupEnv(t, 1, 0)
	kv := populatedKV(10)
	chunks := streamed(t, kv, 1<<20)
	te := []byte{0, 1, 2, 0xff}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		meta := Meta{SE: "kv/0", Epoch: epoch, StoreType: state.TypeKVMap, TE: append(te, byte(epoch))}
		if _, err := b.Save(meta, chunks); err != nil {
			t.Fatal(err)
		}
	}
	if m, _ := b.Latest("kv/0"); m.TE != nil {
		t.Fatalf("manifest holds %d TE bytes", len(m.TE))
	}
	_, got, err := b.Restore("kv/0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.TE, append(te, 2)) {
		t.Fatalf("TE state = %v, want the tip's", got.TE)
	}
}

func TestAsyncCheckpointAllowsWritesDuringSnapshot(t *testing.T) {
	// A modelled 1 MB/s disk holds the save open for tens of milliseconds,
	// so the writer gets to run while the store is dirty.
	_, b := newBackupEnv(t, 2, 1<<20)
	kv := populatedKV(2000)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var writes uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; ; writes++ {
			select {
			case <-stop:
				return
			default:
				kv.Put(writes%2000, []byte("overwritten"))
			}
		}
	}()

	res, err := async(kv, Meta{SE: "kv/0", Epoch: 1}, b)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.StoreType != state.TypeKVMap {
		t.Fatal("store type not recorded")
	}
	if res.Bytes <= 0 || res.Duration <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.MergedDirty == 0 {
		t.Fatal("no write reached the overlay during the checkpoint; test inconclusive")
	}
	// All concurrent writes, the overlay's included, are preserved in the
	// live store.
	for k := uint64(0); k < min(writes, 2000); k++ {
		if v, _ := kv.Get(k); string(v) != "overwritten" {
			t.Fatalf("concurrent write of key %d lost after merge", k)
		}
	}
	// And the checkpoint is consistent: every value is either the original
	// or absent from dirty interference (no torn entries).
	sets, meta, err := b.Restore("kv/0", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := restoreNew(meta, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEntries() != 2000 {
		t.Fatalf("checkpoint entries = %d, want 2000", st.NumEntries())
	}
}

// TestAsyncSpreadsOverEveryTarget: the modelled-disk sink cuts even a
// small state into enough chunks that every backup target holds some, so
// an m-to-n restore reads through all m disks.
func TestAsyncSpreadsOverEveryTarget(t *testing.T) {
	for _, entries := range []int{10, 3000} {
		for _, m := range []int{2, 3} {
			cl, b := newBackupEnv(t, m, 0)
			if _, err := async(populatedKV(entries), Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
				t.Fatal(err)
			}
			// Chunk i lands on target i mod m, so target i holds chunk i.
			for i := 0; i < m; i++ {
				if !slices.Contains(cl.Node(i).Disk.List(), chunkName("kv/0", 1, i)) {
					t.Errorf("%d entries over %d targets: target %d holds no chunk", entries, m, i)
				}
			}
		}
	}
}

func TestAsyncCheckpointLockTimeSmall(t *testing.T) {
	// With a slow disk, async checkpoint duration is dominated by I/O but
	// lock time stays tiny because only the merge locks the store.
	// The payload is sized so the modelled I/O dominates by a wide margin:
	// the lock-time assertion below compares against Duration/4, and on a
	// loaded 1-core CI box a single scheduler hiccup inside the merge
	// window can cost several ms, so Duration must be well above 40ms.
	_, b := newBackupEnv(t, 1, 2<<20) // 2 MB/s
	kv := populatedKV(12000)          // ~160 KB of payload -> ~80ms of I/O
	res, err := async(kv, Meta{SE: "kv/0", Epoch: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 10*time.Millisecond {
		t.Fatalf("duration %v suspiciously fast for a slow disk", res.Duration)
	}
	if res.LockTime > res.Duration/4 {
		t.Fatalf("lock time %v should be a small fraction of duration %v", res.LockTime, res.Duration)
	}
}

func TestAsyncFailsWhenAlreadyDirty(t *testing.T) {
	_, b := newBackupEnv(t, 1, 0)
	kv := populatedKV(10)
	if err := kv.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	if _, err := async(kv, Meta{SE: "kv/0", Epoch: 1}, b); err == nil {
		t.Fatal("Async on dirty store should fail")
	}
}

func TestSaveWithNoTargets(t *testing.T) {
	cl := cluster.New(0, cluster.Config{})
	b := NewBackup(cl, nil)
	kv := populatedKV(1)
	chunks := streamed(t, kv, 1<<20)
	if _, err := b.Save(Meta{SE: "kv/0", Epoch: 1}, chunks); err == nil {
		t.Fatal("save without targets should fail")
	}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	for _, c := range []state.Chunk{
		{Type: state.TypeMatrix, Index: 3, Of: 9, Data: []byte{1, 2, 3}},
		{Type: state.TypeKVMap, Index: 1, Of: 4, Delta: true, Data: []byte{7}},
	} {
		hdr := chunkHeader(c)
		got, err := decodeChunk(append(hdr[:], c.Data...))
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != c.Type || got.Index != c.Index || got.Of != c.Of ||
			got.Delta != c.Delta || string(got.Data) != string(c.Data) {
			t.Fatalf("round trip = %+v, want %+v", got, c)
		}
	}
	if _, err := decodeChunk([]byte{1}); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModeAsync.String() != "async" || ModeSync.String() != "sync" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestMToNRecoveryTimeShape(t *testing.T) {
	// Fig. 11's headline: 2-to-2 recovery beats 1-to-1 because both disk
	// reads and reconstruction parallelise. With a bandwidth-limited disk,
	// restoring via 2 backup disks into 2 instances must be faster than one
	// disk into one instance.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	mkState := func() *state.KVMap {
		kv := state.NewKVMap()
		for i := uint64(0); i < 3000; i++ {
			kv.Put(i, make([]byte, 256))
		}
		return kv
	}
	measure := func(m, n int) time.Duration {
		_, b := newBackupEnv(t, m, 4<<20) // 4 MB/s disks
		if _, err := async(mkState(), Meta{SE: "kv/0", Epoch: 1}, b); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		sets, meta, err := b.Restore("kv/0", n)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, g := range sets {
			wg.Add(1)
			go func(g RestoreSet) {
				defer wg.Done()
				if _, err := restoreNew(meta, g); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	t11 := measure(1, 1)
	t22 := measure(2, 2)
	if t22 >= t11 {
		t.Errorf("2-to-2 recovery (%v) should beat 1-to-1 (%v)", t22, t11)
	}
}

// TestAsyncShardedCrossRestore runs the full §5 async protocol over the
// lock-striped store — dirty cut, shard-by-shard serialisation with writes
// landing in the overlay, backup, merge — and then restores the checkpoint
// through the m-to-n path into the single-lock store, proving the two
// dictionary backends are interchangeable across the whole substrate.
func TestAsyncShardedCrossRestore(t *testing.T) {
	_, b := newBackupEnv(t, 2, 0)
	kv := state.NewShardedKVMap(8)
	for i := uint64(0); i < 500; i++ {
		kv.Put(i, []byte(fmt.Sprintf("value-%d", i)))
	}
	res, err := async(kv, Meta{SE: "kv/0", Epoch: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.StoreType != state.TypeKVMap {
		t.Fatalf("meta store type = %v", res.Meta.StoreType)
	}
	// Post-checkpoint mutations must not appear in the restored snapshot.
	kv.Put(1000, []byte("late"))

	for _, n := range []int{1, 3} {
		sets, meta, err := b.Restore("kv/0", n)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for j, g := range sets {
			r := state.NewKVMap()
			if err := r.Restore(g.Base); err != nil {
				t.Fatal(err)
			}
			total += r.NumEntries()
			r.ForEach(func(k uint64, _ []byte) bool {
				if state.PartitionKey(k, n) != j {
					t.Errorf("key %d restored to wrong instance %d/%d", k, j, n)
					return false
				}
				return true
			})
			if _, ok := r.Get(1000); ok {
				t.Error("post-checkpoint write leaked into the snapshot")
			}
		}
		if total != 500 {
			t.Fatalf("n=%d restored %d entries, want 500", n, total)
		}
		// A store built from meta.StoreType is a dictionary store.
		st, err := restoreNew(meta, sets[0])
		if err != nil {
			t.Fatal(err)
		}
		if st.Type() != state.TypeKVMap {
			t.Fatalf("restored store type = %v", st.Type())
		}
	}

	// And the reverse direction: a single-lock checkpoint restores into the
	// sharded store.
	plain := populatedKV(300)
	chunks := streamed(t, plain, 1024)
	if _, err := b.Save(Meta{SE: "kv/1", Epoch: 1, StoreType: state.TypeKVMap}, chunks); err != nil {
		t.Fatal(err)
	}
	sets2, _, err := b.Restore("kv/1", 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := state.NewShardedKVMap(4)
	if err := sh.Restore(sets2[0].Base); err != nil {
		t.Fatal(err)
	}
	if got := sh.NumEntries(); got != 300 {
		t.Fatalf("sharded restore entries = %d, want 300", got)
	}
}
