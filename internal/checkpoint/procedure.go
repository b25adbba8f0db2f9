package checkpoint

import (
	"fmt"
	"time"

	"repro/internal/state"
)

// ChunkBytes bounds one checkpoint chunk's encoded payload (best effort:
// one oversized entry still becomes one chunk). It is the coordinator's
// default for streamed snapshot parts and the modelled-disk sink's upper
// bound.
const ChunkBytes = 1 << 20

// saveBound is the modelled-disk sink's chunk bound for one store: at most
// ChunkBytes, and small enough that every one of the m backup targets
// writes (and a restore reads) a share of even a small state. The
// accounted size over-counts small entries up to about six-fold (entry
// overhead and key against a varint key and length), so the bound aims at
// eight chunks per target; that also keeps targets within one chunk of
// each other.
func saveBound(st state.Store, b *Backup) int {
	return int(min(ChunkBytes, st.SizeBytes()/int64(8*max(b.Targets(), 1))+1))
}

// Async executes the five-step asynchronous checkpoint of §5 on one SE
// instance, as the modelled-disk sink of a ChunkStream:
//
//	(1) flag the SE dirty (BeginDirty) — writers divert to the overlay;
//	(2..3) serialise the now-consistent base into chunks bounded by
//	       saveBound while processing continues;
//	(4) back the chunks up round-robin over the m target nodes in parallel;
//	(5) lock briefly and consolidate the dirty overlay (MergeDirty).
//
// Only step 5 blocks writers, and its cost is proportional to the update
// rate during the checkpoint, not to the state size — the property Fig. 12
// and Fig. 13 measure.
//
// When the store tracks changed keys, the full snapshot also cuts the
// tracker (committing on success, aborting on failure), so a compaction
// epoch resets the delta chain exactly at this snapshot's cut point.
func Async(st state.Store, meta Meta, b *Backup) (Result, error) {
	return saveAsync(meta, b, false, func() (*ChunkStream, error) {
		return StreamAsync(st, saveBound(st, b))
	})
}

// AsyncDelta executes the asynchronous protocol but serialises only the
// keys changed since the last committed epoch cut (updates + tombstones)
// and appends them to the backup chain; the window's overlay is retained
// for the next epoch by the merge. On any failure the cut is aborted,
// folding the keys back into the tracker so no change is ever dropped from
// the chain.
func AsyncDelta(st state.DeltaStore, meta Meta, b *Backup) (Result, error) {
	return saveAsync(meta, b, true, func() (*ChunkStream, error) {
		return StreamAsyncDelta(st, saveBound(st, b))
	})
}

// saveAsync opens a chunk stream, drains it into the backup store and
// settles the tracker cut by whether the save committed.
func saveAsync(meta Meta, b *Backup, delta bool, open func() (*ChunkStream, error)) (Result, error) {
	start := time.Now()
	s, err := open()
	if err != nil {
		return Result{}, err
	}
	chunks, err := state.Drain(s)
	snapDur := time.Since(start)
	var bytes int64
	if err == nil {
		meta.StoreType = s.st.Type()
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
		StateBytes:   s.st.SizeBytes(),
		Duration:     time.Since(start),
		LockTime:     s.lockTime,
		MergedDirty:  s.merged,
		SnapshotTime: snapDur,
	}, nil
}

// Sync executes a stop-the-world checkpoint: pause() must halt all
// processing that touches the SE; its returned resume function is called
// after the snapshot is persisted. It is Async run inside the pause, so the
// dirty overlay stays empty and the entire serialisation and backup time
// counts as lock time, which is why synchronous checkpointing collapses
// with large state (Fig. 12).
func Sync(st state.Store, meta Meta, b *Backup, pause func() (resume func())) (Result, error) {
	start := time.Now()
	resume := pause()
	lockStart := time.Now()
	res, err := Async(st, meta, b)
	resume()
	if err != nil {
		return Result{}, err
	}
	res.Duration = time.Since(start)
	res.LockTime = time.Since(lockStart)
	return res, nil
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
