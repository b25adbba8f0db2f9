package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// drainStream pulls every chunk out of a store's streaming checkpoint.
func drainStream(t *testing.T, st Store, maxBytes int) []Chunk {
	t.Helper()
	chunks, err := streamAll(st, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// streamAll is drainStream for goroutines that report through t.Errorf.
func streamAll(st Store, maxBytes int) ([]Chunk, error) {
	iter, err := StreamChunks(st, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("StreamChunks: %w", err)
	}
	return Drain(iter)
}

// fillStreamKV loads n deterministic entries.
func fillStreamKV(put func(uint64, []byte), n int) {
	for i := 0; i < n; i++ {
		put(uint64(i), []byte(fmt.Sprintf("value-%04d-%s", i, string(make([]byte, i%32)))))
	}
}

// restoreEqualKV restores chunks into a fresh store of the same flavor and
// requires identical contents.
func restoreEqualKV(t *testing.T, src KV, chunks []Chunk, dst Store) {
	t.Helper()
	if err := dst.Restore(chunks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	dkv := dst.(KV)
	n := 0
	src.ForEach(func(k uint64, v []byte) bool {
		n++
		got, ok := dkv.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d: restored %q ok=%v, want %q", k, got, ok, v)
		}
		return true
	})
	restored := 0
	dkv.ForEach(func(uint64, []byte) bool { restored++; return true })
	if restored != n {
		t.Fatalf("restored %d keys, want %d", restored, n)
	}
}

// TestKVMapStreamRestoreEquivalence: a streamed checkpoint restores to the
// same contents as the store it came from, across several budgets.
func TestKVMapStreamRestoreEquivalence(t *testing.T) {
	for _, maxBytes := range []int{64, 1024, 1 << 20} {
		m := NewKVMap()
		fillStreamKV(m.Put, 500)
		chunks := drainStream(t, m, maxBytes)
		if maxBytes < int(m.SizeBytes()) && len(chunks) < 2 {
			t.Fatalf("maxBytes=%d: %d chunk(s), expected a split", maxBytes, len(chunks))
		}
		for i, ck := range chunks {
			if ck.Type != TypeKVMap {
				t.Fatalf("chunk %d type %v, want TypeKVMap", i, ck.Type)
			}
		}
		restoreEqualKV(t, m, chunks, NewKVMap())
	}
}

// TestShardedKVStreamRestoreEquivalence mirrors the KVMap test across the
// 8-stripe store, restoring at 4 stripes and at one (chunks do not depend
// on the stripe count).
func TestShardedKVStreamRestoreEquivalence(t *testing.T) {
	m := NewShardedKVMap(8)
	fillStreamKV(m.Put, 500)
	chunks := drainStream(t, m, 512)
	if len(chunks) < 2 {
		t.Fatalf("%d chunk(s), expected a split", len(chunks))
	}
	restoreEqualKV(t, m, chunks, NewShardedKVMap(4))
	restoreEqualKV(t, m, chunks, NewKVMap())
}

// TestStreamChunkBudget: every chunk but possibly the last stays within the
// budget modulo one entry's overshoot (the bound is per-part best effort —
// one oversized entry may exceed it, but a chunk never packs a second entry
// once past the budget).
func TestStreamChunkBudget(t *testing.T) {
	const maxBytes = 256
	m := NewKVMap()
	for i := 0; i < 200; i++ {
		m.Put(uint64(i), make([]byte, 40)) // entry encodes well under maxBytes
	}
	chunks := drainStream(t, m, maxBytes)
	const largest = 64 // generous bound for one encoded 40-byte entry
	for i, ck := range chunks {
		if len(ck.Data) > maxBytes+largest {
			t.Fatalf("chunk %d is %d bytes, budget %d + one entry", i, len(ck.Data), maxBytes)
		}
	}
}

// TestStreamDirtyCutExcludesOverlay: writes made while a stream is open
// (dirty mode) must not leak into the streamed base.
func TestStreamDirtyCutExcludesOverlay(t *testing.T) {
	m := NewKVMap()
	fillStreamKV(m.Put, 100)
	if err := m.BeginDirty(); err != nil {
		t.Fatalf("BeginDirty: %v", err)
	}
	iter, err := StreamChunks(m, 512)
	if err != nil {
		t.Fatalf("StreamChunks: %v", err)
	}
	// Mutate behind the cut: overwrite, add, delete.
	m.Put(0, []byte("overwritten-after-cut"))
	m.Put(9999, []byte("new-after-cut"))
	m.Delete(1)
	var chunks []Chunk
	for {
		ck, ok, err := iter.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		chunks = append(chunks, ck)
	}
	if _, err := m.MergeDirty(); err != nil {
		t.Fatalf("MergeDirty: %v", err)
	}
	dst := NewKVMap()
	if err := dst.Restore(chunks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if v, ok := dst.Get(0); !ok || bytes.Equal(v, []byte("overwritten-after-cut")) {
		t.Fatalf("key 0 leaked the post-cut overwrite: %q ok=%v", v, ok)
	}
	if _, ok := dst.Get(9999); ok {
		t.Fatal("post-cut insert leaked into the stream")
	}
	if _, ok := dst.Get(1); !ok {
		t.Fatal("post-cut delete leaked into the stream")
	}
	// And the live store sees the overlay after the merge.
	if v, ok := m.Get(0); !ok || !bytes.Equal(v, []byte("overwritten-after-cut")) {
		t.Fatalf("live store lost the overlay write: %q ok=%v", v, ok)
	}
}

// TestStreamChunksBadBudget: a non-positive budget is an explicit error.
func TestStreamChunksBadBudget(t *testing.T) {
	m := NewKVMap()
	if _, err := StreamChunks(m, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := StreamChunks(m, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// drainIter pulls every chunk out of an iterator.
func drainIter(t *testing.T, iter ChunkIter) []Chunk {
	t.Helper()
	chunks, err := Drain(iter)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// TestEmptyBaseStreamYieldsOneChunk: a dictionary base stream of an empty
// store is one empty chunk, never nothing — a retained chain must be able
// to tell "this epoch is an empty base" from "nothing changed".
func TestEmptyBaseStreamYieldsOneChunk(t *testing.T) {
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			chunks := drainStream(t, impl.new(), 1024)
			if len(chunks) != 1 || chunks[0].Delta {
				t.Fatalf("empty store streamed %d chunk(s): %+v", len(chunks), chunks)
			}
			dst := impl.new()
			dst.Put(1, []byte("kept"))
			if err := dst.Restore(chunks); err != nil {
				t.Fatalf("Restore of the empty chunk: %v", err)
			}
			if n := dst.NumEntries(); n != 1 {
				t.Fatalf("restoring an empty chunk changed the store: %d entries", n)
			}
		})
	}
}

// TestDeltaStreamMatchesDeltaCheckpoint: the streamed delta carries
// exactly the changed keys' updates and tombstones, in chunks that respect
// the byte budget to within one entry, and opens a pending cut that abort
// folds back.
func TestDeltaStreamMatchesDeltaCheckpoint(t *testing.T) {
	const budget = 256
	for _, impl := range kvImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.new()
			m.EnableDeltaTracking()
			fillStreamKV(m.Put, 400)
			m.CutDelta()
			m.CommitDelta()

			// Nothing changed: the stream is empty.
			iter, err := m.DeltaStream(budget)
			if err != nil {
				t.Fatalf("DeltaStream: %v", err)
			}
			if chunks := drainIter(t, iter); len(chunks) != 0 {
				t.Fatalf("unchanged store streamed %d delta chunk(s)", len(chunks))
			}
			m.CommitDelta()

			for i := uint64(0); i < 120; i += 3 {
				m.Put(i, []byte(fmt.Sprintf("rewritten-%d", i)))
			}
			for i := uint64(1); i < 60; i += 3 {
				m.Delete(i)
			}
			m.Put(9999, []byte("new"))
			if err := m.BeginDirty(); err != nil {
				t.Fatal(err)
			}
			m.Put(2, []byte("after the cut")) // diverted: next epoch's
			iter, err = m.DeltaStream(budget)
			if err != nil {
				t.Fatalf("DeltaStream: %v", err)
			}
			chunks := drainIter(t, iter)
			if _, err := m.MergeDirty(); err != nil {
				t.Fatal(err)
			}
			if len(chunks) < 2 {
				t.Fatalf("%d delta chunk(s), expected a split at a %d-byte budget", len(chunks), budget)
			}
			for i, c := range chunks {
				if !c.Delta || c.Index != i {
					t.Fatalf("chunk %d: Delta=%v Index=%d", i, c.Delta, c.Index)
				}
				if len(c.Data) > budget+64 {
					t.Fatalf("chunk %d is %d bytes, budget %d + one entry", i, len(c.Data), budget)
				}
			}
			if n := m.DeltaSize(); n != 1 {
				t.Fatalf("live set holds %d keys after the cut, want only the diverted write", n)
			}

			// Base at the previous cut + streamed delta == the store at this cut.
			ref := impl.new()
			fillStreamKV(ref.Put, 400)
			if err := ref.ApplyDelta(chunks); err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			want := impl.new()
			m.ForEach(func(k uint64, v []byte) bool { want.Put(k, v); return true })
			want.Put(2, []byte(fmt.Sprintf("value-%04d-%s", 2, string(make([]byte, 2)))))
			if ref.NumEntries() != want.NumEntries() {
				t.Fatalf("base+delta has %d keys, want %d", ref.NumEntries(), want.NumEntries())
			}
			want.ForEach(func(k uint64, v []byte) bool {
				if got, ok := ref.Get(k); !ok || !bytes.Equal(got, v) {
					t.Fatalf("key %d: base+delta %q ok=%v, want %q", k, got, ok, v)
				}
				return true
			})

			// Aborting folds the cut back: the next stream covers it again.
			m.AbortDelta()
			iter, err = m.DeltaStream(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if again := drainIter(t, iter); len(again) != 1 {
				t.Fatalf("after abort the cut streamed as %d chunk(s), want 1", len(again))
			}
			m.CommitDelta()
		})
	}
}

// TestDeltaChunkBytesUnchanged pins the delta chunk encoding: for a fixed
// store and a fixed cut-key order, the delta stream's chunks at every bound
// hash to what the two-buffer encoder that preceded the in-place one
// produced (chunk count, and SHA-256 over each chunk's length and bytes).
func TestDeltaChunkBytesUnchanged(t *testing.T) {
	m := NewKVMap()
	var keys []uint64
	for i := uint64(0); i < 40; i++ {
		k := i * 0x9e3779b97f4a7c15 >> (i % 7 * 9)
		keys = append(keys, k)
		if i%3 != 0 { // every third key is a tombstone
			m.Put(k, []byte(fmt.Sprintf("value-%d-%s", i, make([]byte, i%11))))
		}
	}
	for _, want := range []struct {
		bound, chunks int
		sum           string
	}{
		{1, 40, "646caff25c2e83754eb75b822111d9784cd8d9740f6802e02bf6478aeea22882"},
		{64, 9, "bc7225f11094bbe04af88e4000ab2f64bc2496a5143d55fb53d5ad366066bd50"},
		{300, 2, "2d2ed6dce342ab4d9aab0791ff2a00fac71dc3c10072d2e1833932c6f7ba60ef"},
		{1 << 20, 1, "9b0579b3737b4253bf79a3affa0790437fea073af03f57f913b4226606d0557a"},
	} {
		it := &stripeDeltaIter[[]byte, hashEntries[[]byte]]{m: &m.table, keys: keys, left: len(keys), perKey: m.deltaKeyBytes(), maxBytes: want.bound, tmb: newEncoder(0)}
		chunks := drainIter(t, it)
		h := sha256.New()
		for _, c := range chunks {
			fmt.Fprintf(h, "%d:", len(c.Data))
			h.Write(c.Data)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); len(chunks) != want.chunks || sum != want.sum {
			t.Errorf("bound %d: %d chunk(s) hashing to %s, want %d hashing to %s", want.bound, len(chunks), sum, want.chunks, want.sum)
		}
	}
}

// TestBaseChunkBytesUnchanged pins the dictionary's base chunk encoding
// across the move onto the generic store core: for a fixed store and a
// fixed key order, the base stream's chunks at every bound hash to what
// the dictionary-only stream produced (chunk count, and SHA-256 over each
// chunk's length and bytes).
func TestBaseChunkBytesUnchanged(t *testing.T) {
	m := NewKVMap()
	var keys []uint64
	for i := uint64(0); i < 40; i++ {
		k := i * 0x9e3779b97f4a7c15 >> (i % 7 * 9)
		keys = append(keys, k)
		m.Put(k, []byte(fmt.Sprintf("value-%d-%s", i, make([]byte, i%11))))
	}
	for _, want := range []struct {
		bound, chunks int
		sum           string
	}{
		{1, 40, "e11b32fe6fe9bd938e711a43ea4f30ba516f511ea4981d26a2c88f2e234511e5"},
		{64, 11, "7912c0a05662bd8cb8c38000c3354c7d482181ac339fd6fd7ab3c67e4c3b8ff4"},
		{300, 3, "364f8ce89144ffb368477fcc1c6cff08d4e660f53ca4333acae73e963d38fd56"},
		{1 << 20, 1, "bb219b510efa671ce5ffa0702afe392b5a4c408352667f7ae9b02e1b8b3eb26f"},
	} {
		chunks := drainIter(t, &stripeStreamIter[[]byte, hashEntries[[]byte]]{m: &m.table, keys: keys, maxBytes: want.bound})
		h := sha256.New()
		for _, c := range chunks {
			fmt.Fprintf(h, "%d:", len(c.Data))
			h.Write(c.Data)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); len(chunks) != want.chunks || sum != want.sum {
			t.Errorf("bound %d: %d chunk(s) hashing to %s, want %d hashing to %s", want.bound, len(chunks), sum, want.chunks, want.sum)
		}
	}
}
