package state

import "encoding/binary"

// Streaming checkpoints: a store hands out an iterator that encodes one
// bounded chunk at a time from the frozen base, so peak extra memory is one
// chunk rather than the whole store re-encoded. The base must be frozen —
// dirty mode active or the store quiescent — from the first Next until the
// caller is done, and the emitted chunks restore through the ordinary
// Restore path (dictionary Restore merges chunks and ignores Index/Of, so a
// sequential stream uses Index = emission order, Of = 0). A dictionary base
// stream always yields at least one chunk — an empty store yields one
// empty chunk — so a consumer retaining a chain per store can tell "this
// epoch is a base, and it is empty" from "nothing changed".
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

// partitionedStream serves a store's n-way key-hash-partitioned encoding as
// a stream, with n picked so each chunk is likely under maxBytes. Matrix
// and Vector stores have no native stream; they are small dense blocks in
// this codebase, so materialising every chunk up front is acceptable there.
func partitionedStream(size int64, maxBytes int, encode func(n int) []Chunk) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	return &sliceIter{chunks: encode(int(size/int64(maxBytes)) + 1)}, nil
}

// sliceIter adapts a materialised chunk slice to ChunkIter.
type sliceIter struct {
	chunks []Chunk
}

func (s *sliceIter) Next() (Chunk, bool, error) {
	if len(s.chunks) == 0 {
		return Chunk{}, false, nil
	}
	c := s.chunks[0]
	s.chunks = s.chunks[1:]
	return c, true, nil
}

// kvStreamIter streams one KVMap's base as bounded chunks. Keys are
// captured eagerly under the read lock (8 bytes per key — the cheap part);
// values are re-read and encoded lazily per chunk, so peak extra memory is
// one chunk, not the whole store.
type kvStreamIter struct {
	m        *KVMap
	keys     []uint64
	pos      int
	maxBytes int
	emitted  int
}

// CheckpointStream implements Store. The caller must hold the base frozen
// (dirty mode or quiescence) until the iterator is drained.
func (m *KVMap) CheckpointStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	m.mu.RLock()
	keys := make([]uint64, 0, len(m.base))
	for k := range m.base {
		keys = append(keys, k)
	}
	m.mu.RUnlock()
	return &kvStreamIter{m: m, keys: keys, maxBytes: maxBytes}, nil
}

func (it *kvStreamIter) Next() (Chunk, bool, error) {
	if it.pos >= len(it.keys) && it.emitted > 0 {
		return Chunk{}, false, nil
	}
	body := newBaseBody(it.maxBytes, it.m.SizeBytes())
	var count uint64
	it.m.mu.RLock()
	for it.pos < len(it.keys) && !baseFull(body, it.maxBytes) {
		k := it.keys[it.pos]
		it.pos++
		v, ok := it.m.base[k]
		if !ok {
			// The freeze contract makes this unreachable; skip defensively
			// rather than emit a stale entry.
			continue
		}
		body.uvarint(k)
		body.bytes(v)
		count++
	}
	it.m.mu.RUnlock()
	return baseChunk(&it.emitted, count, body)
}

// countRoom is the room a base chunk body reserves in front of its entries
// for the entry count, so a chunk is assembled in place.
const countRoom = binary.MaxVarintLen64

// newBaseBody starts a base chunk body: room for the entry count, then
// capacity for maxBytes of entries plus one overshooting entry of up to
// 4 KiB, or for the store's accounted size if smaller (that exceeds the
// store's whole encoding).
func newBaseBody(maxBytes int, size int64) *encoder {
	hint := int(size)
	if size >= int64(maxBytes) {
		hint = maxBytes + 4<<10
	}
	body := newEncoder(countRoom + hint)
	body.buf = body.buf[:countRoom]
	return body
}

// baseFull reports whether a base chunk body holds maxBytes of entries.
func baseFull(body *encoder, maxBytes int) bool {
	return len(body.buf)-countRoom >= maxBytes
}

// baseChunk assembles one streamed base chunk from an entry count and the
// encoded entries, or ends the stream. Only a stream's first chunk may be
// empty (see the file comment).
func baseChunk(emitted *int, count uint64, body *encoder) (Chunk, bool, error) {
	if count == 0 && *emitted > 0 {
		return Chunk{}, false, nil
	}
	n := binary.PutUvarint(body.tmp[:], count)
	start := countRoom - n
	copy(body.buf[start:], body.tmp[:n])
	c := Chunk{Type: TypeKVMap, Index: *emitted, Of: 0, Data: body.buf[start:]}
	*emitted++
	return c, true, nil
}

// shardedStreamIter streams a ShardedKVMap shard by shard. Key capture is
// lazy per shard, so even the capture overhead stays at one shard's keys.
type shardedStreamIter struct {
	m        *ShardedKVMap
	shard    int
	keys     []uint64
	pos      int
	maxBytes int
	emitted  int
}

// CheckpointStream implements Store; same freeze contract as KVMap's.
func (m *ShardedKVMap) CheckpointStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	return &shardedStreamIter{m: m, maxBytes: maxBytes}, nil
}

func (it *shardedStreamIter) Next() (Chunk, bool, error) {
	if it.shard >= len(it.m.shards) && it.emitted > 0 {
		return Chunk{}, false, nil
	}
	body := newBaseBody(it.maxBytes, it.m.SizeBytes())
	var count uint64
	for !baseFull(body, it.maxBytes) && it.shard < len(it.m.shards) {
		s := it.m.shards[it.shard]
		if it.keys == nil {
			s.mu.RLock()
			it.keys = make([]uint64, 0, len(s.base))
			for k := range s.base {
				it.keys = append(it.keys, k)
			}
			s.mu.RUnlock()
			it.pos = 0
		}
		s.mu.RLock()
		for it.pos < len(it.keys) && !baseFull(body, it.maxBytes) {
			k := it.keys[it.pos]
			it.pos++
			v, ok := s.base[k]
			if !ok {
				continue
			}
			body.uvarint(k)
			body.bytes(v)
			count++
		}
		s.mu.RUnlock()
		if it.pos >= len(it.keys) {
			it.shard++
			it.keys = nil
		}
	}
	return baseChunk(&it.emitted, count, body)
}

// kvDeltaIter streams one KVMap's pending cut as bounded delta chunks: the
// cut's keys are captured when the stream opens, values are read from the
// frozen base lazily per chunk.
type kvDeltaIter struct {
	m        *KVMap
	keys     []uint64
	pos      int
	maxBytes int
	emitted  int
}

// deltaChunkHint caps a streamed delta chunk's initial buffer: most deltas
// are far smaller than the chunk bound, and the encoder grows on demand.
const deltaChunkHint = 64 << 10

// cutKeys flattens a cut set for positional iteration (8 bytes per key).
func cutKeys(set map[uint64]struct{}) []uint64 {
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	return keys
}

// DeltaStream implements DeltaStore; same freeze contract as
// CheckpointStream.
func (m *KVMap) DeltaStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	if !m.delta.enabled() {
		return nil, ErrDeltaInactive
	}
	m.mu.RLock()
	set := m.delta.cut()
	m.mu.RUnlock()
	return &kvDeltaIter{m: m, keys: cutKeys(set), maxBytes: maxBytes}, nil
}

func (it *kvDeltaIter) Next() (Chunk, bool, error) {
	if it.pos >= len(it.keys) {
		return Chunk{}, false, nil
	}
	enc := newDeltaEnc(min(it.maxBytes, deltaChunkHint) + 64)
	it.m.mu.RLock()
	it.pos = enc.fill(it.m.base, it.keys, it.pos, it.maxBytes)
	it.m.mu.RUnlock()
	return enc.chunk(&it.emitted)
}

// fill encodes keys[pos:] against base — present keys as updates, absent
// ones as tombstones — until the encoded size reaches maxBytes, and returns
// the new position.
func (e *deltaEnc) fill(base map[uint64][]byte, keys []uint64, pos, maxBytes int) int {
	for pos < len(keys) && e.size() < maxBytes {
		k := keys[pos]
		pos++
		if v, ok := base[k]; ok {
			e.update(k, v)
		} else {
			e.tombstone(k)
		}
	}
	return pos
}

// chunk assembles one streamed delta chunk, or ends the stream when the
// encoder is empty.
func (e *deltaEnc) chunk(emitted *int) (Chunk, bool, error) {
	if e.ucnt+e.tcnt == 0 {
		return Chunk{}, false, nil
	}
	c := e.assemble(*emitted, 0)
	*emitted++
	return c, true, nil
}

// shardedDeltaIter streams a ShardedKVMap's pending cut shard by shard.
// Every shard's tracker is cut when the stream opens (one instant, under
// the lifecycle lock); keys flatten lazily per shard.
type shardedDeltaIter struct {
	m        *ShardedKVMap
	sets     []map[uint64]struct{}
	shard    int
	keys     []uint64
	pos      int
	maxBytes int
	emitted  int
}

// DeltaStream implements DeltaStore; same freeze contract as
// CheckpointStream.
func (m *ShardedKVMap) DeltaStream(maxBytes int) (ChunkIter, error) {
	if maxBytes < 1 {
		return nil, ErrBadSplit
	}
	if !m.DeltaTracking() {
		return nil, ErrDeltaInactive
	}
	m.lifecycle.Lock()
	defer m.lifecycle.Unlock()
	sets := make([]map[uint64]struct{}, len(m.shards))
	for i, s := range m.shards {
		s.mu.RLock()
		sets[i] = s.delta.cut()
		s.mu.RUnlock()
	}
	return &shardedDeltaIter{m: m, sets: sets, maxBytes: maxBytes}, nil
}

func (it *shardedDeltaIter) Next() (Chunk, bool, error) {
	if it.shard >= len(it.m.shards) {
		return Chunk{}, false, nil
	}
	enc := newDeltaEnc(min(it.maxBytes, deltaChunkHint) + 64)
	for enc.size() < it.maxBytes && it.shard < len(it.m.shards) {
		s := it.m.shards[it.shard]
		if it.keys == nil {
			it.keys = cutKeys(it.sets[it.shard])
			it.pos = 0
		}
		s.mu.RLock()
		it.pos = enc.fill(s.base, it.keys, it.pos, it.maxBytes)
		s.mu.RUnlock()
		if it.pos >= len(it.keys) {
			it.shard++
			it.keys = nil
		}
	}
	return enc.chunk(&it.emitted)
}
