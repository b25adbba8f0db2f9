package checkpoint

import (
	"fmt"
	"time"

	"repro/internal/state"
)

// Async executes the five-step asynchronous checkpoint of §5 on one SE
// instance, as the modelled-disk sink of a ChunkStream:
//
//	(1) flag the SE dirty (BeginDirty) — writers divert to the overlay;
//	(2..3) serialise the now-consistent base into nChunks chunks while
//	       processing continues;
//	(4) back the chunks up to the m target nodes in parallel;
//	(5) lock briefly and consolidate the dirty overlay (MergeDirty).
//
// Only step 5 blocks writers, and its cost is proportional to the update
// rate during the checkpoint, not to the state size — the property Fig. 12
// and Fig. 13 measure.
//
// When the store tracks changed keys, the full snapshot also cuts the
// tracker (committing on success, aborting on failure), so a compaction
// epoch resets the delta chain exactly at this snapshot's cut point.
func Async(st state.Store, meta Meta, nChunks int, b *Backup) (Result, error) {
	return saveAsync(st, meta, b, false, func() ([]state.Chunk, error) {
		return st.Checkpoint(nChunks)
	})
}

// AsyncDelta executes the asynchronous protocol but serialises only the
// keys changed since the last committed epoch cut (updates + tombstones)
// and appends them to the backup chain; the window's overlay is retained
// for the next epoch by the merge. On any failure the cut is aborted,
// folding the keys back into the tracker so no change is ever dropped from
// the chain.
func AsyncDelta(st state.DeltaStore, meta Meta, nChunks int, b *Backup) (Result, error) {
	return saveAsync(st, meta, b, true, func() ([]state.Chunk, error) {
		return st.DeltaCheckpoint(nChunks)
	})
}

// saveAsync drains one stream of hash-partitioned chunks into the backup
// store and settles the tracker cut by whether the save committed.
func saveAsync(st state.Store, meta Meta, b *Backup, delta bool, serialise func() ([]state.Chunk, error)) (Result, error) {
	start := time.Now()
	s, err := openStream(st, delta, func() (state.ChunkIter, error) {
		chunks, err := serialise()
		return (*chunkSlice)(&chunks), err
	})
	if err != nil {
		return Result{}, err
	}
	var chunks []state.Chunk
	for {
		c, ok, nerr := s.Next()
		if nerr != nil {
			err = fmt.Errorf("checkpoint: serialise: %w", nerr)
		}
		if !ok {
			break
		}
		chunks = append(chunks, c)
	}
	snapDur := time.Since(start)
	var bytes int64
	if err == nil {
		meta.StoreType = st.Type()
		meta.Delta = delta
		bytes, err = b.Save(meta, chunks)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.Abort()
		return Result{}, err
	}
	s.Commit()
	return Result{
		Meta:         meta,
		Bytes:        bytes,
		StateBytes:   st.SizeBytes(),
		Duration:     time.Since(start),
		LockTime:     s.lockTime,
		MergedDirty:  s.merged,
		SnapshotTime: snapDur,
	}, nil
}

// Sync executes a stop-the-world checkpoint: pause() must halt all
// processing that touches the SE; its returned resume function is called
// after the snapshot is persisted. The entire serialisation and backup time
// counts as lock time, which is why synchronous checkpointing collapses
// with large state (Fig. 12). A live delta tracker is cut and committed
// like Async's, so mixing modes never leaks tracked keys.
func Sync(st state.Store, meta Meta, nChunks int, b *Backup, pause func() (resume func())) (Result, error) {
	start := time.Now()
	resume := pause()
	lockStart := time.Now()
	snapStart := time.Now()
	chunks, err := st.Checkpoint(nChunks)
	snapDur := time.Since(snapStart)
	if err != nil {
		resume()
		return Result{}, fmt.Errorf("checkpoint: serialise: %w", err)
	}
	ds, isTracked := tracked(st)
	if isTracked {
		ds.CutDelta()
	}
	meta.StoreType = st.Type()
	meta.Delta = false
	bytes, err := b.Save(meta, chunks)
	lockDur := time.Since(lockStart)
	resume()
	if err != nil {
		if isTracked {
			ds.AbortDelta()
		}
		return Result{}, err
	}
	if isTracked {
		ds.CommitDelta()
	}
	return Result{
		Meta:         meta,
		Bytes:        bytes,
		StateBytes:   st.SizeBytes(),
		Duration:     time.Since(start),
		LockTime:     lockDur,
		SnapshotTime: snapDur,
	}, nil
}

// RestoreInstance rebuilds one recovering SE instance into st, the
// caller's empty store, from its restore set (Fig. 4 step R2: "the new SE
// instances reconcile the chunks"): the base group restores first, then
// each delta epoch replays in chain order.
func RestoreInstance(st state.Store, set RestoreSet) error {
	if err := st.Restore(set.Base); err != nil {
		return fmt.Errorf("checkpoint: reconcile chunks: %w", err)
	}
	return ApplyDeltas(st, set.Deltas)
}

// ApplyDeltas replays delta epochs in chain order onto a restored base.
func ApplyDeltas(st state.Store, deltas [][]state.Chunk) error {
	for _, epoch := range deltas {
		if len(epoch) == 0 {
			continue
		}
		ds, ok := st.(state.DeltaStore)
		if !ok {
			return fmt.Errorf("checkpoint: store type %v cannot apply delta epochs", st.Type())
		}
		if err := ds.ApplyDelta(epoch); err != nil {
			return fmt.Errorf("checkpoint: replay delta epoch: %w", err)
		}
	}
	return nil
}
