package state

import (
	"fmt"
	"sync"
	"testing"
)

// eachKVBackend runs a subtest per dictionary stripe count: kvmap is one
// stripe, sharded eight.
func eachKVBackend(t *testing.T, fn func(t *testing.T, mk func() DeltaStore)) {
	t.Helper()
	backends := map[string]func() DeltaStore{
		"kvmap":   func() DeltaStore { return NewKVMap() },
		"sharded": func() DeltaStore { return NewShardedKVMap(8) },
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) { fn(t, mk) })
	}
}

// drainDelta opens a delta stream (and with it a pending cut) and pulls
// every chunk out of it.
func drainDelta(t *testing.T, st DeltaStore, maxBytes int) []Chunk {
	t.Helper()
	iter, err := st.DeltaStream(maxBytes)
	if err != nil {
		t.Fatalf("DeltaStream: %v", err)
	}
	return drainIter(t, iter)
}

func kvEqual(t *testing.T, a, b KV) {
	t.Helper()
	if an, bn := a.NumEntries(), b.NumEntries(); an != bn {
		t.Fatalf("entry counts differ: %d vs %d", an, bn)
	}
	a.ForEach(func(k uint64, v []byte) bool {
		bv, ok := b.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if string(bv) != string(v) {
			t.Fatalf("key %d = %q, want %q", k, bv, v)
		}
		return true
	})
}

func TestDeltaTrackingOffByDefault(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		if st.DeltaTracking() {
			t.Fatal("tracking should default off")
		}
		st.(KV).Put(1, []byte("x"))
		if st.DeltaSize() != 0 {
			t.Fatal("untracked store recorded a change")
		}
		if _, err := st.DeltaStream(1 << 20); err != ErrDeltaInactive {
			t.Fatalf("DeltaStream without tracking = %v, want ErrDeltaInactive", err)
		}
	})
}

func TestDeltaCheckpointOnlyChangedKeys(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		for _, maxBytes := range []int{16, 1024, 1 << 20} {
			st := mk()
			kv := st.(KV)
			st.EnableDeltaTracking()
			for i := uint64(0); i < 1000; i++ {
				kv.Put(i, []byte(fmt.Sprintf("v%d", i)))
			}
			// Base cut: everything so far is covered by a full checkpoint.
			st.CutDelta()
			st.CommitDelta()
			if st.DeltaSize() != 0 {
				t.Fatalf("delta size after committed cut = %d", st.DeltaSize())
			}

			// Churn: 10 updates, 5 deletes, 2 inserts.
			for i := uint64(0); i < 10; i++ {
				kv.Put(i, []byte("new"))
			}
			for i := uint64(100); i < 105; i++ {
				kv.Delete(i)
			}
			kv.Put(5000, []byte("ins"))
			kv.Put(5001, []byte("ins"))
			if got := st.DeltaSize(); got != 17 {
				t.Fatalf("delta size = %d, want 17", got)
			}

			chunks := drainDelta(t, st, maxBytes)
			st.CommitDelta()
			if maxBytes == 16 && len(chunks) < 2 {
				t.Fatalf("maxBytes=%d: %d delta chunk(s), expected a split", maxBytes, len(chunks))
			}
			var ucnt, tcnt uint64
			for _, c := range chunks {
				if !c.Delta || c.Type != TypeKVMap {
					t.Fatalf("chunk = %+v, want delta kvmap chunk", c)
				}
				d := newDecoder(c.Data)
				nu := d.uvarint()
				for i := uint64(0); i < nu; i++ {
					d.uvarint()
					d.bytes()
				}
				nt := d.uvarint()
				for i := uint64(0); i < nt; i++ {
					d.uvarint()
				}
				if !d.done() {
					t.Fatalf("trailing bytes in delta chunk: %v", d.err)
				}
				ucnt += nu
				tcnt += nt
			}
			if ucnt != 12 || tcnt != 5 {
				t.Fatalf("maxBytes=%d: updates=%d tombstones=%d, want 12/5", maxBytes, ucnt, tcnt)
			}

			// Applying base + delta onto a fresh store reproduces the live
			// state, at either stripe count.
			for _, rebuild := range []DeltaStore{NewKVMap(), NewShardedKVMap(4)} {
				base := rebuild.(KV)
				for i := uint64(0); i < 1000; i++ {
					base.Put(i, []byte(fmt.Sprintf("v%d", i)))
				}
				if err := rebuild.ApplyDelta(chunks); err != nil {
					t.Fatal(err)
				}
				kvEqual(t, kv, base)
			}
		}
	})
}

func TestDeltaDirtyWindowRetainedByMerge(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		kv := st.(KV)
		st.EnableDeltaTracking()
		for i := uint64(0); i < 100; i++ {
			kv.Put(i, []byte("base"))
		}
		st.CutDelta()
		st.CommitDelta()

		kv.Put(1, []byte("preseal"))
		if err := st.BeginDirty(); err != nil {
			t.Fatal(err)
		}
		chunks := drainDelta(t, st, 64)
		// Writes during the checkpoint window land in the overlay and must
		// surface in the *next* epoch's delta, not this one.
		kv.Put(2, []byte("window"))
		kv.Delete(3)
		if _, err := st.MergeDirty(); err != nil {
			t.Fatal(err)
		}
		st.CommitDelta()

		var keys []uint64
		for _, c := range chunks {
			err := applyDeltaChunk(c,
				func(k uint64, _ []byte) { keys = append(keys, k) },
				func(k uint64) { keys = append(keys, k) })
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(keys) != 1 || keys[0] != 1 {
			t.Fatalf("epoch 1 delta keys = %v, want [1]", keys)
		}

		// The window writes belong to the next delta.
		if got := st.DeltaSize(); got != 2 {
			t.Fatalf("retained window size = %d, want 2", got)
		}
		chunks2 := drainDelta(t, st, 1<<20)
		st.CommitDelta()
		var upd, tomb []uint64
		for _, c := range chunks2 {
			_ = applyDeltaChunk(c,
				func(k uint64, _ []byte) { upd = append(upd, k) },
				func(k uint64) { tomb = append(tomb, k) })
		}
		if len(upd) != 1 || upd[0] != 2 || len(tomb) != 1 || tomb[0] != 3 {
			t.Fatalf("epoch 2 delta = upd %v tomb %v, want [2]/[3]", upd, tomb)
		}
	})
}

func TestDeltaAbortRefoldsPendingCut(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		kv := st.(KV)
		st.EnableDeltaTracking()
		kv.Put(1, []byte("a"))
		kv.Put(2, []byte("b"))
		drainDelta(t, st, 1<<20)
		if st.DeltaSize() != 0 {
			t.Fatal("cut did not reset the live tracker")
		}
		kv.Put(3, []byte("c"))
		st.AbortDelta()
		// The aborted epoch's keys rejoin the tracker alongside newer ones.
		if got := st.DeltaSize(); got != 3 {
			t.Fatalf("post-abort delta size = %d, want 3", got)
		}
		chunks := drainDelta(t, st, 1<<20)
		st.CommitDelta()
		count := 0
		for _, c := range chunks {
			_ = applyDeltaChunk(c, func(uint64, []byte) { count++ }, func(uint64) { count++ })
		}
		if count != 3 {
			t.Fatalf("retried delta carries %d keys, want 3", count)
		}
	})
}

func TestDeltaClearTombstonesEverything(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		kv := st.(KV)
		st.EnableDeltaTracking()
		for i := uint64(0); i < 50; i++ {
			kv.Put(i, []byte("x"))
		}
		st.CutDelta()
		st.CommitDelta()
		kv.Clear()
		kv.Put(7, []byte("only"))

		chunks := drainDelta(t, st, 64)
		st.CommitDelta()

		rebuilt := NewKVMap()
		for i := uint64(0); i < 50; i++ {
			rebuilt.Put(i, []byte("x"))
		}
		if err := rebuilt.ApplyDelta(chunks); err != nil {
			t.Fatal(err)
		}
		if got := rebuilt.NumEntries(); got != 1 {
			t.Fatalf("rebuilt entries = %d, want 1", got)
		}
		if v, ok := rebuilt.Get(7); !ok || string(v) != "only" {
			t.Fatalf("rebuilt key 7 = %q, %v", v, ok)
		}
	})
}

func TestSplitDeltaChunk(t *testing.T) {
	st := NewKVMap()
	st.EnableDeltaTracking()
	for i := uint64(0); i < 200; i++ {
		st.Put(i, []byte(fmt.Sprintf("v%d", i)))
	}
	for i := uint64(0); i < 20; i++ {
		st.Delete(i + 1000) // no-ops, not recorded
	}
	st.Put(500, []byte("del-me"))
	st.CutDelta()
	st.CommitDelta()
	st.Put(3, []byte("upd"))
	st.Delete(500)
	chunks := drainDelta(t, st, 1<<20)
	st.CommitDelta()
	if len(chunks) != 1 {
		t.Fatalf("delta streamed as %d chunks, want 1", len(chunks))
	}

	parts, err := SplitChunk(chunks[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("split into %d parts", len(parts))
	}
	var upd, tomb int
	for _, p := range parts {
		if !p.Delta {
			t.Fatal("split lost the delta flag")
		}
		err := applyDeltaChunk(p,
			func(k uint64, _ []byte) {
				upd++
				if PartitionKey(k, 4) != p.Index {
					t.Fatalf("key %d in wrong partition %d", k, p.Index)
				}
			},
			func(k uint64) {
				tomb++
				if PartitionKey(k, 4) != p.Index {
					t.Fatalf("tombstone %d in wrong partition %d", k, p.Index)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if upd != 1 || tomb != 1 {
		t.Fatalf("split delta carries upd=%d tomb=%d, want 1/1", upd, tomb)
	}
}

func TestRestoreRejectsDeltaChunk(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		st.EnableDeltaTracking()
		st.(KV).Put(1, []byte("x"))
		chunks := drainDelta(t, st, 1<<20)
		st.CommitDelta()
		if err := mk().Restore(chunks); err != ErrDeltaChunk {
			t.Fatalf("Restore(delta chunk) = %v, want ErrDeltaChunk", err)
		}
		// And the reverse: ApplyDelta rejects base chunks.
		base := drainStream(t, st, 1<<20)
		if err := mk().ApplyDelta(base); err != ErrNotDelta {
			t.Fatalf("ApplyDelta(base chunk) = %v, want ErrNotDelta", err)
		}
	})
}

// TestDeltaConcurrentWriters exercises the tracked hot path under the race
// detector: concurrent writers while delta epochs cut, serialise and merge.
func TestDeltaConcurrentWriters(t *testing.T) {
	eachKVBackend(t, func(t *testing.T, mk func() DeltaStore) {
		st := mk()
		kv := st.(KV)
		st.EnableDeltaTracking()
		for i := uint64(0); i < 500; i++ {
			kv.Put(i, []byte("seed"))
		}
		st.CutDelta()
		st.CommitDelta()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := (i*4 + uint64(w)) % 600
					switch i % 3 {
					case 0:
						kv.Put(k, []byte("w"))
					case 1:
						kv.Get(k)
					default:
						kv.Delete(k)
					}
				}
			}(w)
		}
		for epoch := 0; epoch < 5; epoch++ {
			if err := st.BeginDirty(); err != nil {
				t.Fatal(err)
			}
			drainDelta(t, st, 256)
			if _, err := st.MergeDirty(); err != nil {
				t.Fatal(err)
			}
			st.CommitDelta()
		}
		close(stop)
		wg.Wait()
	})
}

// bytes is decoder.view copied out of the decoder's buffer.
func (d *decoder) bytes() []byte {
	return append([]byte(nil), d.view()...)
}

func (d *decoder) done() bool { return d.err == nil && d.off >= len(d.buf) }
