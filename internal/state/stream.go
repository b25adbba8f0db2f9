package state

import (
	"encoding/binary"
	"maps"
	"slices"
)

// Streaming checkpoints: a store hands out an iterator that encodes one
// bounded chunk at a time from the frozen base, so peak extra memory is one
// chunk rather than the whole store re-encoded. The base must be frozen —
// dirty mode active or the store quiescent — from the first Next until the
// caller is done, and the emitted chunks restore through the ordinary
// Restore path (Restore merges chunks and ignores Index/Of, so a stream
// uses Index = emission order, Of = 0). A base stream always yields at
// least one chunk — an empty store yields one empty chunk — so a consumer
// retaining a chain per store can tell "this epoch is a base, and it is
// empty" from "nothing changed".
//
// DeltaStream is the incremental counterpart: it opens a pending cut of the
// changed-key tracker and yields the cut keys as bounded delta chunks
// (updates and tombstones, applied with ApplyDelta in stream order), or
// nothing at all when no key changed.

// ChunkIter yields checkpoint chunks one at a time. Next returns the next
// chunk and ok=true, or ok=false when the stream is exhausted (err != nil
// reports a mid-stream failure; the iterator is then dead).
type ChunkIter interface {
	Next() (c Chunk, ok bool, err error)
}

// StreamChunks returns a store's base checkpoint stream with chunks of at
// most maxBytes each; every store rejects a non-positive bound.
func StreamChunks(st Store, maxBytes int) (ChunkIter, error) {
	return st.CheckpointStream(maxBytes)
}

// Drain pulls every chunk out of a stream.
func Drain(it ChunkIter) ([]Chunk, error) {
	var chunks []Chunk
	for {
		c, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return chunks, nil
		}
		chunks = append(chunks, c)
	}
}

// appendEntry appends k's base entry in stripe s to dst, reporting false
// when k is absent; the stripe's lock is held.
func (t *table[V, B]) appendEntry(s *stripe[V, B], k uint64, dst []byte) ([]byte, bool) {
	v, ok := s.base.get(k)
	if ok {
		dst = t.codec.encode(binary.AppendUvarint(dst, k), v)
	}
	return dst, ok
}

// stripeStreamIter streams a table's base stripe by stripe. A stripe's
// keys are captured when the stream reaches it, under its read lock (8
// bytes per key — the cheap part); values are re-read and encoded lazily
// per chunk, so peak extra memory is one chunk and one stripe's keys.
type stripeStreamIter[V any, B entries[V, B]] struct {
	m        *table[V, B]
	stripe   int
	keys     []uint64
	pos      int
	maxBytes int
	emitted  int
}

// CheckpointStream implements Store. The caller must hold the base frozen
// (dirty mode or quiescence) until the iterator is drained.
func (t *table[V, B]) CheckpointStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	return &stripeStreamIter[V, B]{m: t, maxBytes: maxBytes}, nil
}

func (it *stripeStreamIter[V, B]) Next() (Chunk, bool, error) {
	stripes := len(it.m.stripes)
	if it.stripe >= stripes && it.emitted > 0 {
		return Chunk{}, false, nil
	}
	body := newChunkBody(it.maxBytes, it.m.SizeBytes())
	var count uint64
	for !bodyFull(body, it.maxBytes) && it.stripe < stripes {
		s := it.m.stripes[it.stripe]
		s.mu.RLock()
		if it.keys == nil {
			it.keys = slices.AppendSeq(make([]uint64, 0, s.base.len()), s.keys)
			it.pos = 0
		}
		for it.pos < len(it.keys) && !bodyFull(body, it.maxBytes) {
			k := it.keys[it.pos]
			it.pos++
			// The freeze contract keeps every key present; an absent one
			// is skipped defensively rather than emitted stale.
			var ok bool
			if body.buf, ok = it.m.appendEntry(s, k, body.buf); ok {
				count++
			}
		}
		s.mu.RUnlock()
		if it.pos >= len(it.keys) {
			it.stripe++
			it.keys = nil
		}
	}
	// Only a stream's first chunk may be empty (see the file comment).
	if count == 0 && it.emitted > 0 {
		return Chunk{}, false, nil
	}
	c := Chunk{Type: it.m.Type(), Index: it.emitted, Data: sealCount(body, count)}
	it.emitted++
	return c, true, nil
}

// newChunkBody starts a chunk body for an encoding estimated at est bytes:
// capacity for the estimate or, when that reaches maxBytes, for maxBytes of
// entries plus one overshooting entry of up to 4 KiB.
func newChunkBody(maxBytes int, est int64) *encoder {
	if est >= int64(maxBytes) {
		return newCountedBody(maxBytes + 4<<10)
	}
	return newCountedBody(int(est))
}

// bodyFull reports whether a counted chunk body holds maxBytes of entries.
func bodyFull(body *encoder, maxBytes int) bool {
	return len(body.buf)-countRoom >= maxBytes
}

// stripeDeltaIter streams a table's pending cut as bounded delta chunks.
// Every stripe's tracker is cut when the stream opens (one instant, under
// the lifecycle lock); a stripe's cut keys flatten when the stream reaches
// it, and values are read from the frozen base lazily per chunk, each
// chunk built in place by a deltaEnc.
type stripeDeltaIter[V any, B entries[V, B]] struct {
	m        *table[V, B]
	sets     []map[uint64]struct{}
	stripe   int
	keys     []uint64
	pos      int
	left     int   // cut keys not yet encoded, over every stripe
	perKey   int64 // estimated encoded bytes per cut key
	maxBytes int
	emitted  int
	tmb      *encoder // tombstone side buffer, reused by every chunk
}

// DeltaStream implements Store; same freeze contract as
// CheckpointStream.
func (t *table[V, B]) DeltaStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	if !t.DeltaTracking() {
		return nil, ErrDeltaInactive
	}
	it := &stripeDeltaIter[V, B]{m: t, sets: t.cutStripes(), perKey: t.deltaKeyBytes(), maxBytes: maxBytes, tmb: newEncoder(0)}
	for _, set := range it.sets {
		it.left += len(set)
	}
	return it, nil
}

// deltaKeyBytes estimates one cut key's delta encoding from the accounted
// size: the mean value size (the mean accounted entry less its
// bookkeeping share) plus room for the key's and the length's uvarints.
func (t *table[V, B]) deltaKeyBytes() int64 {
	var size, n int64
	for _, s := range t.stripes {
		s.mu.RLock()
		n += int64(s.base.len())
		s.mu.RUnlock()
		size += s.size.Load()
	}
	return max(size/max(n, 1)-t.overhead, 0) + 2*binary.MaxVarintLen64
}

func (it *stripeDeltaIter[V, B]) Next() (Chunk, bool, error) {
	if it.left == 0 {
		return Chunk{}, false, nil
	}
	it.tmb.buf = it.tmb.buf[:0]
	enc := deltaEnc{body: newChunkBody(it.maxBytes, int64(it.left)*it.perKey), tmb: it.tmb}
	for it.left > 0 && enc.size() < it.maxBytes {
		if it.keys == nil {
			it.keys = slices.AppendSeq(make([]uint64, 0, len(it.sets[it.stripe])), maps.Keys(it.sets[it.stripe]))
			it.pos = 0
		}
		s := it.m.stripes[it.stripe]
		s.mu.RLock()
		for it.pos < len(it.keys) && enc.size() < it.maxBytes {
			k := it.keys[it.pos]
			it.pos++
			it.left--
			// Present keys are updates, absent ones tombstones.
			var ok bool
			if enc.body.buf, ok = it.m.appendEntry(s, k, enc.body.buf); ok {
				enc.ucnt++
			} else {
				enc.tombstone(k)
			}
		}
		s.mu.RUnlock()
		if it.pos >= len(it.keys) {
			it.stripe++
			it.keys = nil
		}
	}
	c := Chunk{Type: it.m.Type(), Index: it.emitted, Delta: true, Data: enc.seal()}
	it.emitted++
	return c, true, nil
}
