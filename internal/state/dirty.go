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
// Writers consult dirty *before* taking mu: in dirty mode they write only
// the overlay and never take mu exclusively, so a long-running checkpoint
// stream holding mu.RLock never blocks them — that is the property Fig. 12 measures against synchronous
// checkpointing. The subtle case is a writer that loads dirty=false just as
// BeginDirty runs: it takes mu and re-checks the flag under the lock, and
// since BeginDirty also holds mu exclusively, either the write lands in the
// base before the snapshot begins or it is redirected to the overlay. The
// mirror case — a writer that loads dirty=true just as MergeDirty runs —
// re-checks under dmu the same way (see baseWriteOrDirty).
//
// The store core (table) embeds one dirtyCtl per lock stripe and flips
// every flag under an ordered sweep of the stripes' mu (table.BeginDirty).
// A writer that edits a value in place holds mu shared and dmu in dirty
// mode (stripe.lockWrite), which pins the mode and the frozen base value a
// first touch copies into the overlay.
type dirtyCtl struct {
	mu    sync.RWMutex
	dmu   sync.RWMutex
	dirty atomic.Bool
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
