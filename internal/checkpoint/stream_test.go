package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/state"
)

// TestStreamAsyncDrainAndClose: StreamAsync cuts the store dirty, serves
// the frozen base in bounded chunks, and Close merges the overlay back
// exactly once — after which writes hit the base directly again.
func TestStreamAsyncDrainAndClose(t *testing.T) {
	m := state.NewKVMap()
	for i := 0; i < 300; i++ {
		m.Put(uint64(i), []byte(fmt.Sprintf("val-%03d", i)))
	}

	cs, err := StreamAsync(m, 512)
	if err != nil {
		t.Fatalf("StreamAsync: %v", err)
	}
	// The store is dirty now: concurrent-with-transfer writes divert to
	// the overlay and must not appear in the streamed chunks.
	m.Put(5, []byte("post-cut"))

	var chunks []state.Chunk
	for {
		ck, ok, err := cs.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		chunks = append(chunks, ck)
	}
	if len(chunks) < 2 {
		t.Fatalf("%d chunk(s), expected a split at 512-byte budget", len(chunks))
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Idempotent: the second Close must not merge (or fail) again.
	if err := cs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := cs.Next(); err == nil {
		t.Fatal("Next after Close succeeded")
	}

	// The stream carries the pre-cut value; the live store the overlay one.
	dst := state.NewKVMap()
	if err := dst.Restore(chunks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if v, _ := dst.Get(5); bytes.Equal(v, []byte("post-cut")) {
		t.Fatal("post-cut write leaked into the streamed checkpoint")
	}
	if v, ok := m.Get(5); !ok || !bytes.Equal(v, []byte("post-cut")) {
		t.Fatalf("overlay write lost after Close: %q ok=%v", v, ok)
	}
	// Merged back means a fresh BeginDirty works (dirty mode is not
	// re-entrant, so this also proves Close really merged).
	if err := m.BeginDirty(); err != nil {
		t.Fatalf("BeginDirty after Close: %v", err)
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatalf("MergeDirty: %v", err)
	}
}

// TestStreamAsyncErrorMerges: a StreamChunks failure inside StreamAsync
// must merge the dirty overlay back before returning, leaving the store
// usable.
func TestStreamAsyncErrorMerges(t *testing.T) {
	m := state.NewKVMap()
	m.Put(1, []byte("x"))
	if _, err := StreamAsync(m, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	// The failed open must have rolled dirty mode back.
	if err := m.BeginDirty(); err != nil {
		t.Fatalf("store left dirty after failed StreamAsync: %v", err)
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatalf("MergeDirty: %v", err)
	}
}

// mustDrain pulls every chunk out of a stream.
func mustDrain(t *testing.T, it state.ChunkIter) []state.Chunk {
	t.Helper()
	chunks, err := state.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// TestStreamAsyncDeltaSettle drives the coordinator sink's shape of the
// shared producer: a base stream cuts the tracker, a delta stream serves
// only what changed since, and the cut's fate is decided after Close —
// Commit drops it, Abort makes the next epoch cover the same keys again.
func TestStreamAsyncDeltaSettle(t *testing.T) {
	for _, backend := range []string{"kvmap", "sharded"} {
		t.Run(backend, func(t *testing.T) {
			st := mkTracked(backend, 500, []byte("value"))
			kv := st.(state.KV)
			if _, err := StreamAsyncDelta(state.NewKVMap(), 1024); err == nil {
				t.Fatal("delta stream on an untracked store accepted")
			}

			base, err := StreamAsync(st, 1024)
			if err != nil {
				t.Fatal(err)
			}
			baseChunks := mustDrain(t, base)
			if err := base.Close(); err != nil {
				t.Fatal(err)
			}
			base.Commit()
			if n := st.DeltaSize(); n != 0 {
				t.Fatalf("tracker holds %d keys after a committed base", n)
			}

			kv.Put(3, []byte("three"))
			kv.Delete(4)
			lost, err := StreamAsyncDelta(st, 1024)
			if err != nil {
				t.Fatal(err)
			}
			kv.Put(5, []byte("during the stream"))
			mustDrain(t, lost)
			if err := lost.Close(); err != nil {
				t.Fatal(err)
			}
			// The sink never retained this epoch.
			lost.Abort()
			if n := st.DeltaSize(); n != 3 {
				t.Fatalf("tracker holds %d keys after the abort, want keys 3, 4 and 5", n)
			}

			kept, err := StreamAsyncDelta(st, 1024)
			if err != nil {
				t.Fatal(err)
			}
			deltaChunks := mustDrain(t, kept)
			if err := kept.Close(); err != nil {
				t.Fatal(err)
			}
			kept.Commit()
			kept.Abort() // settled: must not resurrect the cut
			if n := st.DeltaSize(); n != 0 {
				t.Fatalf("tracker holds %d keys after the commit", n)
			}

			dst := state.NewKVMap()
			if err := dst.Restore(baseChunks); err != nil {
				t.Fatal(err)
			}
			if err := dst.ApplyDelta(deltaChunks); err != nil {
				t.Fatal(err)
			}
			if n := dst.NumEntries(); n != kv.NumEntries() {
				t.Fatalf("base+delta has %d keys, want %d", n, kv.NumEntries())
			}
			kv.ForEach(func(k uint64, v []byte) bool {
				if got, ok := dst.Get(k); !ok || !bytes.Equal(got, v) {
					t.Fatalf("key %d: base+delta %q ok=%v, want %q", k, got, ok, v)
				}
				return true
			})
		})
	}
}
