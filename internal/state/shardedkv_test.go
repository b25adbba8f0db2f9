package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// kvImpls enumerates the dictionary backends; cross-cutting tests and the
// head-to-head benchmarks run against each so the single-lock and sharded
// stores stay behaviourally identical. The sharded store is pinned to 8
// shards rather than the GOMAXPROCS default, which degenerates to a single
// shard on 1-core CI runners and would exercise only the striping overhead.
var kvImpls = []struct {
	name string
	new  func() KV
}{
	{"single-lock", func() KV { return NewKVMap() }},
	{"sharded", func() KV { return NewShardedKVMap(8) }},
}

func TestShardedKVShardCount(t *testing.T) {
	for _, tt := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1 << 20, maxKVShards},
	} {
		if got := NewShardedKVMap(tt.in).NumShards(); got != tt.want {
			t.Errorf("NumShards(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
	def := NewShardedKVMap(0).NumShards()
	if def < 1 || def&(def-1) != 0 {
		t.Errorf("default shard count %d is not a power of two", def)
	}
}

func TestShardedKVBasic(t *testing.T) {
	m := NewShardedKVMap(4)
	if m.Type() != TypeKVMap {
		t.Fatalf("Type = %v", m.Type())
	}
	const n = 1000
	for i := uint64(0); i < n; i++ {
		m.Put(i, []byte{byte(i)})
	}
	if got := m.NumEntries(); got != n {
		t.Fatalf("NumEntries = %d, want %d", got, n)
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not accounted")
	}
	for i := uint64(0); i < n; i++ {
		v, ok := m.Get(i)
		if !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	if !m.Delete(7) {
		t.Fatal("Delete(7) reported absent")
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get(7) after delete")
	}
	if m.Delete(7) {
		t.Fatal("second Delete(7) reported present")
	}
	m.Clear()
	if got := m.NumEntries(); got != 0 {
		t.Fatalf("NumEntries after Clear = %d", got)
	}
	if got := m.SizeBytes(); got != 0 {
		t.Fatalf("SizeBytes after Clear = %d", got)
	}
}

func TestShardedKVDirtyProtocol(t *testing.T) {
	m := NewShardedKVMap(4)
	for i := uint64(0); i < 100; i++ {
		m.Put(i, []byte("base"))
	}
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginDirty(); err != ErrDirtyActive {
		t.Fatalf("second BeginDirty = %v, want ErrDirtyActive", err)
	}
	// Overlay writes: updates, a delete and a fresh key.
	m.Put(1, []byte("dirty"))
	m.Delete(2)
	m.Put(200, []byte("new"))
	if got := m.DirtySize(); got != 3 {
		t.Fatalf("DirtySize = %d, want 3", got)
	}
	// Reads see the overlay first.
	if v, _ := m.Get(1); string(v) != "dirty" {
		t.Fatalf("Get(1) = %q", v)
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("Get(2) should see the tombstone")
	}
	// The checkpoint sees only the pre-dirty base.
	chunks := drainStream(t, m, 64)
	snap := NewKVMap()
	if err := snap.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if got := snap.NumEntries(); got != 100 {
		t.Fatalf("snapshot entries = %d, want 100", got)
	}
	if v, _ := snap.Get(1); string(v) != "base" {
		t.Fatalf("snapshot Get(1) = %q, want pre-dirty value", v)
	}
	merged, err := m.MergeDirty()
	if err != nil {
		t.Fatal(err)
	}
	if merged != 3 {
		t.Fatalf("MergeDirty = %d, want 3", merged)
	}
	if _, err := m.MergeDirty(); err != ErrDirtyInactive {
		t.Fatalf("second MergeDirty = %v, want ErrDirtyInactive", err)
	}
	if v, _ := m.Get(1); string(v) != "dirty" {
		t.Fatalf("post-merge Get(1) = %q", v)
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("post-merge Get(2) should be deleted")
	}
	if got := m.NumEntries(); got != 100 {
		t.Fatalf("post-merge entries = %d, want 100", got) // -1 deleted, +1 new
	}
}

// TestKVDirtyDoubleDelete: deleting an already-deleted key during dirty
// mode must report absent, even though the base still holds the snapshot
// copy until MergeDirty. Regression test for both backends.
func TestKVDirtyDoubleDelete(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.new()
			m.Put(1, []byte("v"))
			if err := m.BeginDirty(); err != nil {
				t.Fatal(err)
			}
			if !m.Delete(1) {
				t.Fatal("first Delete should report present")
			}
			if m.Delete(1) {
				t.Fatal("second Delete should report absent (tombstoned)")
			}
			// An overlay re-insert resurrects the key.
			m.Put(1, []byte("w"))
			if !m.Delete(1) {
				t.Fatal("Delete after re-insert should report present")
			}
			if _, err := m.MergeDirty(); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.Get(1); ok {
				t.Fatal("key should be gone after merge")
			}
		})
	}
}

func TestShardedKVClearDuringDirty(t *testing.T) {
	m := NewShardedKVMap(4)
	for i := uint64(0); i < 50; i++ {
		m.Put(i, []byte{1})
	}
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	m.Clear()
	// The in-flight checkpoint still sees the pre-clear base...
	chunks := drainStream(t, m, 64)
	snap := NewShardedKVMap(2)
	if err := snap.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if got := snap.NumEntries(); got != 50 {
		t.Fatalf("snapshot entries = %d, want 50", got)
	}
	// ...but the live view is empty, before and after the merge.
	if got := m.NumEntries(); got != 0 {
		t.Fatalf("live entries during dirty = %d, want 0", got)
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if got := m.NumEntries(); got != 0 {
		t.Fatalf("post-merge entries = %d, want 0", got)
	}
}

// TestKVCrossImplCheckpointCompat proves the chunk-format compatibility
// claim: checkpoints written by either dictionary backend restore into the
// other, through direct restore and through SplitChunk re-partitioning.
func TestKVCrossImplCheckpointCompat(t *testing.T) {
	fill := func(m KV) {
		for i := uint64(0); i < 777; i++ {
			m.Put(i*2654435761, []byte{byte(i), byte(i >> 8)})
		}
	}
	check := func(t *testing.T, m KV) {
		t.Helper()
		if got := m.NumEntries(); got != 777 {
			t.Fatalf("restored entries = %d, want 777", got)
		}
		for i := uint64(0); i < 777; i++ {
			v, ok := m.Get(i * 2654435761)
			if !ok || !bytes.Equal(v, []byte{byte(i), byte(i >> 8)}) {
				t.Fatalf("restored Get(%d) = %v, %v", i, v, ok)
			}
		}
	}
	for _, src := range kvImpls {
		for _, dst := range kvImpls {
			for _, nChunks := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s-to-%s/chunks=%d", src.name, dst.name, nChunks), func(t *testing.T) {
					s := src.new()
					fill(s)
					// A byte bound of 1/nChunks of the whole encoding
					// streams the store in at least nChunks chunks.
					whole := drainStream(t, s, 1<<20)
					chunks := drainStream(t, s, len(whole[0].Data)/nChunks)
					if len(chunks) < nChunks {
						t.Fatalf("chunks = %d, want at least %d", len(chunks), nChunks)
					}
					d := dst.new()
					if err := d.Restore(chunks); err != nil {
						t.Fatal(err)
					}
					check(t, d)

					// And through restore-time re-partitioning (Fig. 4 R1).
					var split []Chunk
					for _, c := range chunks {
						parts, err := SplitChunk(c, 4)
						if err != nil {
							t.Fatal(err)
						}
						split = append(split, parts...)
					}
					d2 := dst.new()
					if err := d2.Restore(split); err != nil {
						t.Fatal(err)
					}
					check(t, d2)
				})
			}
		}
	}
}

// TestShardedKVSplit: the sharded store's streamed chunks split n ways
// into sharded stores that each hold exactly their own partition. Dirty
// mode is reported store-wide, which is what reshaping checks before it
// reads a source.
func TestShardedKVSplit(t *testing.T) {
	m := NewShardedKVMap(8)
	const n = 500
	for i := uint64(0); i < n; i++ {
		m.Put(i, []byte{byte(i)})
	}
	parts := reshapeByChunks(t, m, 3, func() Store { return NewShardedKVMap(8) })
	if m.NumEntries() != n {
		t.Fatalf("source holds %d entries after the split, want %d", m.NumEntries(), n)
	}
	total := 0
	for pi, p := range parts {
		kv := p.(*ShardedKVMap)
		total += kv.NumEntries()
		kv.ForEach(func(k uint64, _ []byte) bool {
			if owner := PartitionKey(k, 3); owner != pi {
				t.Errorf("key %d in part %d, owner %d", k, pi, owner)
			}
			return true
		})
	}
	if total != n {
		t.Fatalf("split total = %d, want %d", total, n)
	}

	dirty := NewShardedKVMap(2)
	dirty.Put(1, []byte{1})
	if err := dirty.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	if !dirty.Dirty() {
		t.Fatal("Dirty() = false inside BeginDirty/MergeDirty")
	}
	if _, err := dirty.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if dirty.Dirty() {
		t.Fatal("Dirty() = true after MergeDirty")
	}
	if _, err := SplitChunk(Chunk{Type: TypeKVMap}, 0); err != ErrBadSplit {
		t.Fatalf("SplitChunk(0) = %v, want ErrBadSplit", err)
	}
}

func TestShardedKVRestoreErrors(t *testing.T) {
	m := NewShardedKVMap(2)
	if err := m.Restore([]Chunk{{Type: TypeVector}}); err == nil {
		t.Fatal("wrong-type chunk accepted")
	}
	if err := m.Restore([]Chunk{{Type: TypeKVMap, Data: []byte{0xff}}}); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if _, err := m.CheckpointStream(0); err != ErrBadSplit {
		t.Fatalf("CheckpointStream(0) = %v, want ErrBadSplit", err)
	}
}

// TestKVConcurrentOps hammers each backend with concurrent mutators racing
// the full dirty-checkpoint cycle plus aggregate readers. Run under
// -race, it is the locking-discipline regression test: failures show up as
// detector reports, not assertion text.
func TestKVConcurrentOps(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.new()
			const (
				writers  = 4
				keySpace = 512
				opsEach  = 3000
			)
			var mutWg, bgWg sync.WaitGroup
			stop := make(chan struct{})
			// Mutators: Put/Get/Delete over a shared key space with an
			// occasional Clear.
			for w := 0; w < writers; w++ {
				mutWg.Add(1)
				go func(w int) {
					defer mutWg.Done()
					for i := 0; i < opsEach; i++ {
						k := uint64((i*7 + w*13) % keySpace)
						switch i % 5 {
						case 0, 1, 2:
							m.Put(k, []byte{byte(i), byte(w)})
						case 3:
							m.Get(k)
						default:
							m.Delete(k)
						}
						if w == 0 && i%1000 == 999 {
							m.Clear()
						}
					}
				}(w)
			}
			// Aggregate readers.
			bgWg.Add(1)
			go func() {
				defer bgWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					m.NumEntries()
					m.SizeBytes()
					m.DirtySize()
					m.ForEach(func(uint64, []byte) bool { return true })
				}
			}()
			// Checkpoint cycles racing the mutators.
			var cycles atomic.Int64
			bgWg.Add(1)
			go func() {
				defer bgWg.Done()
				for {
					// The stop check sits at the bottom so at least one
					// full cycle races the mutators even on a fast run.
					if err := m.BeginDirty(); err != nil {
						t.Errorf("BeginDirty: %v", err)
						return
					}
					chunks, err := streamAll(m, 1024)
					if err != nil {
						t.Error(err)
						return
					}
					snap := NewKVMap()
					if err := snap.Restore(chunks); err != nil {
						t.Errorf("Restore: %v", err)
						return
					}
					if _, err := m.MergeDirty(); err != nil {
						t.Errorf("MergeDirty: %v", err)
						return
					}
					cycles.Add(1)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()

			// Mutators finish on their own; then stop the polling loops.
			mutWg.Wait()
			close(stop)
			bgWg.Wait()

			if cycles.Load() == 0 {
				t.Error("no checkpoint cycle completed")
			}
			// Quiesced store must be internally consistent.
			n := 0
			m.ForEach(func(k uint64, v []byte) bool {
				n++
				if len(v) != 2 {
					t.Errorf("key %d has malformed value %v", k, v)
				}
				return true
			})
			if got := m.NumEntries(); got != n {
				t.Errorf("NumEntries = %d, ForEach saw %d", got, n)
			}
		})
	}
}

// TestKVClearRacesMergeDirty pins the Clear/MergeDirty interleaving: if
// the dirty flag flips false between Clear's mode check and its overlay
// mutation, a naive Clear is lost entirely and plants stale tombstones
// that destroy later writes. Whatever the interleaving, Clear must leave
// the store empty and later Puts must survive the next checkpoint cycle.
func TestKVClearRacesMergeDirty(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				m := impl.new()
				for k := uint64(0); k < 64; k++ {
					m.Put(k, []byte{1})
				}
				if err := m.BeginDirty(); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := m.MergeDirty(); err != nil {
						t.Errorf("MergeDirty: %v", err)
					}
				}()
				m.Clear()
				wg.Wait()
				// The clear lands either before the merge (tombstones
				// consumed) or after it (base dropped) — never nowhere.
				if n := m.NumEntries(); n != 0 {
					t.Fatalf("iter %d: %d entries survived Clear racing MergeDirty", i, n)
				}
				// No stale tombstones: a fresh write must survive the next
				// dirty cycle.
				m.Put(5, []byte{2})
				if err := m.BeginDirty(); err != nil {
					t.Fatal(err)
				}
				if _, err := m.MergeDirty(); err != nil {
					t.Fatal(err)
				}
				if _, ok := m.Get(5); !ok {
					t.Fatalf("iter %d: write destroyed by stale tombstone", i)
				}
			}
		})
	}
}

// TestShardedKVClearAtomicAgainstCut races a whole-store Clear against
// BeginDirty: the snapshot taken after the cut must contain either every
// pre-clear key or none — a torn (half-cleared) snapshot means the clear
// straddled the cut, a state that never logically existed.
func TestShardedKVClearAtomicAgainstCut(t *testing.T) {
	const keys = 128
	for i := 0; i < 200; i++ {
		m := NewShardedKVMap(8)
		for k := uint64(0); k < keys; k++ {
			m.Put(k, []byte{1})
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.BeginDirty(); err != nil {
				t.Errorf("BeginDirty: %v", err)
			}
		}()
		m.Clear()
		wg.Wait()
		chunks := drainStream(t, m, 256)
		snap := NewKVMap()
		if err := snap.Restore(chunks); err != nil {
			t.Fatal(err)
		}
		if n := snap.NumEntries(); n != 0 && n != keys {
			t.Fatalf("iter %d: torn snapshot with %d of %d keys", i, n, keys)
		}
		if _, err := m.MergeDirty(); err != nil {
			t.Fatal(err)
		}
		if n := m.NumEntries(); n != 0 {
			t.Fatalf("iter %d: %d entries survived Clear", i, n)
		}
	}
}

// TestShardedKVParallelSnapshotVisibility checks the §5 cut: every write
// acknowledged before BeginDirty returns is in the checkpoint; every write
// started after it is not.
func TestShardedKVParallelSnapshotVisibility(t *testing.T) {
	m := NewShardedKVMap(8)
	for i := uint64(0); i < 256; i++ {
		m.Put(i, []byte{1})
	}
	if err := m.BeginDirty(); err != nil {
		t.Fatal(err)
	}
	// Concurrent post-cut writers run while the checkpoint serialises.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 256; i++ {
				m.Put(1000+uint64(w)*256+i, []byte{2})
			}
		}(w)
	}
	chunks := drainStream(t, m, 256)
	wg.Wait()
	snap := NewShardedKVMap(4)
	if err := snap.Restore(chunks); err != nil {
		t.Fatal(err)
	}
	if got := snap.NumEntries(); got != 256 {
		t.Fatalf("snapshot entries = %d, want exactly the pre-cut 256", got)
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatal(err)
	}
	if got := m.NumEntries(); got != 256+4*256 {
		t.Fatalf("post-merge entries = %d, want %d", got, 256+4*256)
	}
}

// TestWriteRacingMergeDirty is the regression test for a lost-update race
// in the dirty-state protocol: a writer that saw dirty=true and then lost
// the overlay lock to MergeDirty used to write into the fresh overlay of a
// store that had already left dirty mode. Nobody reads that overlay until
// the next checkpoint, whose merge then folds the stale value over
// everything written since — on a counter, every increment in between is
// lost (two of ten edge_ingest benchmark runs ended with one key of 65 536
// short by 7 and 9 increments). Read-modify-write counters under
// back-to-back dirty cycles hit the window within milliseconds.
func TestWriteRacingMergeDirty(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.new()
			const keys, writers = 256, 4
			stop := make(chan struct{})
			cycled := make(chan struct{})
			go func() {
				defer close(cycled)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := m.BeginDirty(); err != nil {
						t.Error(err)
						return
					}
					if _, err := m.MergeDirty(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			// Each writer owns its keys, like the one TE instance that owns
			// an SE partition.
			want := make([][keys]uint64, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 100_000; i++ {
						k := uint64(i*7919) % keys
						key := uint64(w)<<32 | k
						var n uint64
						if v, ok := m.Get(key); ok {
							n = binary.BigEndian.Uint64(v)
						}
						m.Put(key, binary.BigEndian.AppendUint64(nil, n+1))
						want[w][k]++
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-cycled
			for w := range want {
				for k, n := range want[w] {
					v, _ := m.Get(uint64(w)<<32 | uint64(k))
					if len(v) != 8 || binary.BigEndian.Uint64(v) != n {
						t.Fatalf("writer %d key %d: count %x, want %d", w, k, v, n)
					}
				}
			}
		})
	}
}
