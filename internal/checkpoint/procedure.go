package checkpoint

import (
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

// Open begins the five-step asynchronous checkpoint of §5 on one SE
// instance, as the modelled-disk sink of a ChunkStream:
//
//	(1) flag the SE dirty (BeginDirty) — writers divert to the overlay;
//	(2..3) serialise the now-consistent base into chunks bounded by
//	       saveBound while processing continues;
//	(4) back the chunks up round-robin over the m target nodes in parallel;
//	(5) lock briefly and consolidate the dirty overlay (MergeDirty).
//
// Open is step 1, the cut, so a caller can cut more than the store at the
// same instant; SaveStream is the rest. Only step 5 blocks writers, and its
// cost is proportional to the update rate during the checkpoint, not to
// the state size — the property Fig. 12 and Fig. 13 measure.
//
// delta selects an incremental epoch: only the keys changed since the last
// committed cut (updates + tombstones) are serialised and appended to the
// backup chain, and the window's overlay is retained for the next epoch by
// the merge; the store must track changed keys. When it does, a full
// snapshot also cuts the tracker, so a compaction epoch resets the delta
// chain exactly at this snapshot's cut point. On any failure the cut is
// aborted, folding the keys back into the tracker so no change is ever
// dropped from the chain.
func (b *Backup) Open(st state.Store, delta bool) (*ChunkStream, error) {
	if delta {
		return StreamAsyncDelta(st, saveBound(st, b))
	}
	return StreamAsync(st, saveBound(st, b))
}

// SaveStream drains a stream Open returned into the backup store under
// meta, merges the overlay back and settles the tracker cut by whether the
// save committed. The Result's times count from the stream's open.
func (b *Backup) SaveStream(s *ChunkStream, meta Meta) (Result, error) {
	chunks, err := state.Drain(s)
	var bytes int64
	if err == nil {
		meta.StoreType = s.st.Type()
		meta.Delta = s.delta
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
	meta.TE = nil
	return Result{
		Meta:        meta,
		Bytes:       bytes,
		StateBytes:  s.st.SizeBytes(),
		Duration:    time.Since(s.opened),
		LockTime:    s.lockTime,
		MergedDirty: s.merged,
	}, nil
}
