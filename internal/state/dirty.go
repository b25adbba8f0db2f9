package state

import (
	"sync"
	"sync/atomic"
)

// dirtyCtl implements the locking discipline of the asynchronous
// checkpointing protocol (§5). Two locks split the store into the immutable
// base (serialised by the checkpointer) and the dirty overlay (absorbing
// writes while the checkpoint is in flight):
//
//   - mu guards the base structure;
//   - dmu guards the overlay;
//   - dirty is the mode flag, flipped only while holding mu.
//
// Writers consult dirty *before* taking mu: in dirty mode they only ever
// touch the overlay, so a long-running Checkpoint holding mu.RLock never
// blocks them — that is the property Fig. 12 measures against synchronous
// checkpointing. The subtle case is a writer that loads dirty=false just as
// BeginDirty runs: it takes mu and re-checks the flag under the lock, and
// since BeginDirty also holds mu exclusively, either the write lands in the
// base before the snapshot begins or it is redirected to the overlay. The
// mirror case — a writer that loads dirty=true just as MergeDirty runs —
// re-checks under dmu the same way (see baseWriteOrDirty).
//
// Matrix and Vector embed one dirtyCtl for the whole store; KVMap embeds
// one per lock stripe and flips all flags under an ordered sweep of every
// stripe's mu (see KVMap.BeginDirty), which preserves the same atomic-cut
// invariant store-wide.
type dirtyCtl struct {
	mu    sync.RWMutex
	dmu   sync.RWMutex
	dirty atomic.Bool
}

// Dirty reports whether the store is in dirty mode (a checkpoint snapshot
// is in flight). Embedding dirtyCtl exports this on Matrix and Vector;
// KVMap implements its own store-level view.
func (c *dirtyCtl) Dirty() bool { return c.dirty.Load() }

// beginDirty flips the store into dirty mode. Holding mu exclusively
// guarantees no base write is in flight when the flag is set.
func (c *dirtyCtl) beginDirty() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty.Load() {
		return ErrDirtyActive
	}
	c.dirty.Store(true)
	return nil
}

// lockMerge acquires both locks for overlay consolidation and returns an
// unlock function. The caller mutates base and overlay, then clears the
// dirty flag before unlocking via the returned func.
func (c *dirtyCtl) lockMerge() (unlock func(), err error) {
	c.mu.Lock()
	c.dmu.Lock()
	if !c.dirty.Load() {
		c.dmu.Unlock()
		c.mu.Unlock()
		return nil, ErrDirtyInactive
	}
	return func() {
		c.dirty.Store(false)
		c.dmu.Unlock()
		c.mu.Unlock()
	}, nil
}

// baseWriteOrDirty decides the write path. It returns true with dmu held
// for writing when the caller must update the overlay, or false with mu
// held for writing when the caller may update the base. The caller unlocks
// the corresponding lock.
//
// The flag is re-checked under whichever lock was taken, in both
// directions. A writer that saw dirty=true can lose dmu to MergeDirty: by
// the time it gets the lock the store has left dirty mode, and a write into
// the fresh overlay would sit there unseen — readers of a clean store go
// straight to the base — until the next checkpoint's merge folds the stale
// value over everything written since. Under dmu the flag cannot clear
// (MergeDirty needs dmu), under mu it cannot flip at all.
func (c *dirtyCtl) baseWriteOrDirty() bool {
	for {
		if c.dirty.Load() {
			c.dmu.Lock()
			if c.dirty.Load() {
				return true
			}
			// MergeDirty won the race; take the base path.
			c.dmu.Unlock()
			continue
		}
		c.mu.Lock()
		if !c.dirty.Load() {
			return false
		}
		// BeginDirty won the race; redirect to the overlay.
		c.mu.Unlock()
	}
}
