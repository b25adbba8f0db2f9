package checkpoint

import (
	"fmt"
	"time"

	"repro/internal/state"
)

// ChunkStream is the asynchronous checkpoint protocol of §5 as an iterator,
// and the one place that performs it: opening the stream flags the store
// dirty and cuts its changed-key tracker (steps 1-2), Next serialises the
// frozen base — or, in delta mode, only the keys the cut holds — one chunk
// at a time while processing continues (step 3), Close merges the dirty
// overlay back (step 5), and Commit or Abort settles the tracker cut once
// the sink knows whether the epoch is durable (step 4 is the sink's).
//
// Two sinks consume the same byte-bounded chunks. The modelled-disk sink
// (Async, AsyncDelta) drains them into Backup.Save, which spreads them over
// the m backup nodes, and settles at once; the coordinator sink (runtime's
// snapshot stream) serves them over the wire and settles when the next
// SnapBegin says what was retained. Either way a restore re-splits every
// chunk n ways by key hash.
//
// Writers divert to the overlay for the stream's whole lifetime, so the
// caller should drain and Close promptly — but processing never stops
// while state trickles out, which is what lets a snapshot larger than any
// frame cap leave the node chunk by chunk.
type ChunkStream struct {
	st     state.Store
	cut    state.DeltaStore // non-nil while a tracker cut awaits Commit/Abort
	iter   state.ChunkIter
	closed bool

	merged   int           // overlay entries Close consolidated
	lockTime time.Duration // how long Close held the store
}

// StreamAsync opens a streaming base checkpoint on one store: the store
// goes dirty and the returned stream serves its frozen base in chunks of at
// most maxBytes (best effort). The caller MUST Close the stream — that is
// step 5, the overlay merge — exactly once, error or not, and settle it
// with Commit or Abort when the store tracks changed keys.
func StreamAsync(st state.Store, maxBytes int) (*ChunkStream, error) {
	return openStream(st, false, func() (state.ChunkIter, error) {
		return state.StreamChunks(st, maxBytes)
	})
}

// StreamAsyncDelta is StreamAsync for an incremental epoch: the stream
// serves only the keys changed since the last committed cut, as delta
// chunks of at most maxBytes. The store must track changed keys.
func StreamAsyncDelta(st state.DeltaStore, maxBytes int) (*ChunkStream, error) {
	return openStream(st, true, func() (state.ChunkIter, error) {
		return st.DeltaStream(maxBytes)
	})
}

// tracked returns the store's delta tracker when changed-key tracking is
// live, so base epochs can cut/commit it and keep the tracker bounded even
// when they serialise the whole base.
func tracked(st state.Store) (state.DeltaStore, bool) {
	ds, ok := st.(state.DeltaStore)
	return ds, ok && ds.DeltaTracking()
}

// openStream flags the store dirty, opens the tracker cut and builds the
// chunk iterator. A delta iterator opens the cut itself (DeltaStream cuts
// and captures the key set in one step); a base epoch of a tracked store
// cuts here, so the chain restarts exactly at this snapshot's cut point.
func openStream(st state.Store, delta bool, iter func() (state.ChunkIter, error)) (*ChunkStream, error) {
	if err := st.BeginDirty(); err != nil {
		return nil, fmt.Errorf("checkpoint: begin dirty: %w", err)
	}
	s := &ChunkStream{st: st}
	if ds, ok := tracked(st); ok {
		s.cut = ds
		if !delta {
			ds.CutDelta()
		}
	}
	var err error
	if s.iter, err = iter(); err != nil {
		_ = s.Close()
		s.Abort()
		return nil, fmt.Errorf("checkpoint: stream: %w", err)
	}
	return s, nil
}

// Next returns the next chunk, ok=false at end of stream.
func (s *ChunkStream) Next() (state.Chunk, bool, error) {
	if s.closed {
		return state.Chunk{}, false, fmt.Errorf("checkpoint: stream closed")
	}
	return s.iter.Next()
}

// Close merges the dirty overlay back into the base (step 5). Idempotent:
// only the first call merges.
func (s *ChunkStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	start := time.Now()
	merged, err := s.st.MergeDirty()
	s.merged, s.lockTime = merged, time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint: merge dirty: %w", err)
	}
	return nil
}

// Commit drops the tracker cut: the epoch is durable, its keys are covered.
// A no-op for untracked stores and once the cut is settled.
func (s *ChunkStream) Commit() {
	if s.cut != nil {
		s.cut.CommitDelta()
		s.cut = nil
	}
}

// Abort folds the tracker cut back into the live set: the epoch was not
// retained, so the next one must cover the same keys. A no-op for
// untracked stores and once the cut is settled.
func (s *ChunkStream) Abort() {
	if s.cut != nil {
		s.cut.AbortDelta()
		s.cut = nil
	}
}
