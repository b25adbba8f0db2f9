// Package state implements the state element (SE) data structures of the SDG
// model (paper §3.2) together with the fault-tolerance hooks of §5:
//
//   - every store supports the dirty-state protocol: BeginDirty redirects
//     updates into an overlay so a consistent snapshot can be serialised
//     asynchronously, and MergeDirty consolidates the overlay under a short
//     lock;
//   - checkpoints stream out as byte-bounded chunks that restore re-splits
//     by key hash, which is what enables the m-to-n parallel
//     backup/restore pattern (Fig. 4).
//
// Provided store types mirror the paper's predefined SE classes: KVMap
// (dictionary), Matrix (indexed sparse matrix) and Vector. All three are
// views over one store core (table): keys mapped to values of one type
// over lock stripes, with one dirty-state protocol, delta tracking and one
// chunk entry format — the dictionary's values are bytes, the matrix's
// rows keyed by row id, the vector's elements keyed by index. NewKVMap
// builds one stripe (a single-lock store, what deployments run),
// NewShardedKVMap n.
package state

import (
	"errors"
	"fmt"
)

// StoreType identifies a store view for checkpoint restore; it tags every
// chunk.
type StoreType uint8

// Store type identifiers. The zero value is invalid so that a forgotten
// type field fails loudly. The numbers are on the wire (chunk headers,
// snapshot parts); 3 and 5 are retired and rejected everywhere.
const (
	TypeInvalid StoreType = 0
	TypeKVMap   StoreType = 1
	TypeMatrix  StoreType = 2
	TypeVector  StoreType = 4
)

// String names the store type.
func (t StoreType) String() string {
	switch t {
	case TypeKVMap:
		return "kvmap"
	case TypeMatrix:
		return "matrix"
	case TypeVector:
		return "vector"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// Chunk is one fragment of a checkpoint. A streamed checkpoint numbers its
// chunks in emission order (Of = 0); SplitChunk's pieces are the key-hash
// partitions {Index: 0..Of-1}. Chunks are self-describing so they can be
// split at restore time (m-to-n).
// Delta marks an incremental chunk: its body carries only the entries
// changed since the previous epoch plus tombstones for deleted keys (see
// delta.go for the wire format); it is applied with ApplyDelta on top of a
// restored base instead of Restore.
type Chunk struct {
	Type  StoreType
	Index int
	Of    int
	Delta bool
	Data  []byte
}

// Errors returned by store operations.
var (
	ErrDirtyActive    = errors.New("state: dirty mode already active")
	ErrDirtyInactive  = errors.New("state: dirty mode not active")
	ErrBadChunk       = errors.New("state: malformed checkpoint chunk")
	ErrWrongChunkType = errors.New("state: chunk type does not match store")
	ErrBadSplit       = errors.New("state: invalid partition count")
	ErrDeltaInactive  = errors.New("state: delta tracking not enabled")
	ErrNotDelta       = errors.New("state: chunk is not a delta chunk")
	ErrDeltaChunk     = errors.New("state: delta chunk passed to full restore")
)

// Store is the interface every SE data structure implements. Stores are safe
// for concurrent use by multiple task element instances on the same node.
type Store interface {
	// Type identifies the concrete implementation.
	Type() StoreType
	// SizeBytes is the approximate in-memory footprint of the contents.
	SizeBytes() int64
	// NumEntries is the number of logical entries (keys, cells, elements).
	NumEntries() int

	// BeginDirty switches the store into dirty mode: subsequent updates go
	// to an overlay and the base becomes immutable, so CheckpointStream can
	// read it without blocking writers. It fails if dirty mode is already
	// active.
	BeginDirty() error
	// MergeDirty consolidates the overlay into the base under a lock and
	// leaves dirty mode. It reports the number of consolidated updates.
	MergeDirty() (int, error)
	// DirtySize reports the number of entries in the dirty overlay.
	DirtySize() int
	// Dirty reports whether dirty mode is active.
	Dirty() bool

	// CheckpointStream serialises the consistent (base) contents as a
	// stream of chunks of at most maxBytes encoded bytes each (best effort:
	// one oversized entry still becomes one chunk). The base must stay
	// frozen — dirty mode active, or the store quiescent — until the
	// iterator is drained.
	CheckpointStream(maxBytes int) (ChunkIter, error)
	// Restore merges the given chunks into the store. It accepts any subset
	// of a checkpoint, so partial restores build up partitioned instances.
	Restore(chunks []Chunk) error
}

// DeltaStore is implemented by stores that support incremental (delta)
// checkpoints: they track the keys changed since the last committed epoch
// cut and serialise only those. The cut follows a two-phase commit so an
// aborted backup loses nothing (see delta.go): DeltaStream or CutDelta
// opens a pending cut between BeginDirty and MergeDirty, and exactly one of
// CommitDelta / AbortDelta closes it once the epoch's save succeeded or
// failed.
type DeltaStore interface {
	Store
	// EnableDeltaTracking starts recording changed keys. The first
	// checkpoint after enabling must be a full one.
	EnableDeltaTracking()
	// DeltaTracking reports whether tracking is on.
	DeltaTracking() bool
	// DeltaSize reports the number of keys changed since the last cut.
	DeltaSize() int
	// DeltaStream opens a pending cut and serialises the changed keys as a
	// stream of delta chunks of at most maxBytes each (best effort, like
	// CheckpointStream); peak extra memory is one chunk. Same consistency
	// contract as CheckpointStream.
	DeltaStream(maxBytes int) (ChunkIter, error)
	// ApplyDelta replays delta chunks (puts + tombstone deletes) onto the
	// store. Chunks of different epochs must be applied in epoch order.
	ApplyDelta(chunks []Chunk) error
	// CutDelta opens a pending cut without serialising — the cut point of a
	// full checkpoint taken while tracking is on.
	CutDelta()
	// CommitDelta closes the pending cut after a durable save.
	CommitDelta()
	// AbortDelta folds the pending cut back into the live tracker after a
	// failed save.
	AbortDelta()
}

// KV is the dictionary interface KVMap implements at any stripe count.
// Task functions and bench/e2e access dictionary SEs through it, so they do
// not depend on the concrete store type an SE's builder picks.
type KV interface {
	Store
	// Put stores value under key. The value is retained by reference;
	// callers must not mutate it afterwards.
	Put(key uint64, value []byte)
	// Get returns the value for key.
	Get(key uint64) ([]byte, bool)
	// Delete removes key, reporting whether it was (logically) present.
	Delete(key uint64) bool
	// Clear removes all entries.
	Clear()
	// ForEach visits live entries (base view only when dirty). Iteration
	// stops when fn returns false.
	ForEach(fn func(key uint64, value []byte) bool)
}

// PartitionKey maps a key to one of n partitions. It is shared by
// SplitChunk and the dataflow dispatchers so that
// "the dataflow partitioning strategy is compatible with the data access
// pattern" (§3.2): routing and storage always agree.
func PartitionKey(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix64(key) % uint64(n))
}

// mix64 is a strong 64-bit finalizer (splitmix64) so sequential keys spread
// evenly across partitions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New constructs an empty store of the given type. A Vector is created
// with zero length; Restore grows it by the elements it restores.
func New(t StoreType) (Store, error) {
	switch t {
	case TypeKVMap:
		return NewKVMap(), nil
	case TypeMatrix:
		return NewMatrix(), nil
	case TypeVector:
		return NewVector(0), nil
	default:
		return nil, fmt.Errorf("state: unknown store type %v", t)
	}
}

// SplitChunk re-partitions one checkpoint chunk into n chunks by key hash.
// Every store type's chunks share one entry format, so one base split and
// one delta split serve them all. Restore-time splitting is what lets one
// backup chunk feed n recovering SE instances in parallel (Fig. 4, step
// R1).
func SplitChunk(c Chunk, n int) ([]Chunk, error) {
	if n < 1 {
		return nil, ErrBadSplit
	}
	switch c.Type {
	case TypeKVMap, TypeMatrix, TypeVector:
	default:
		return nil, fmt.Errorf("state: cannot split chunk of type %v", c.Type)
	}
	if c.Delta {
		return splitDeltaChunk(c, n)
	}
	return splitChunk(c, n)
}
