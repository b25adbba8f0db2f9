// Package checkpoint implements the failure-recovery substrate of §5:
// asynchronous local checkpoints with dirty state, synchronous
// (stop-the-world) checkpoints for the baseline comparison, and the m-to-n
// parallel backup/restore protocol of Fig. 4.
//
// A checkpoint of one SE instance consists of byte-bounded chunks (the
// state package's checkpoint stream, at most ChunkBytes each and several
// per backup node), the instance's output buffers, and the vector of input
// watermarks at snapshot time. Chunks go to the m backup nodes round-robin and are
// written to their simulated disks; at restore time each backup chunk is
// split n ways by key hash so n recovering instances rebuild in parallel.
// Dictionary chunks use one wire format regardless of backend, so sharded
// and single-lock checkpoints restore into either store.
//
// Epochs form chains: a full (base) checkpoint starts a chain, and delta
// checkpoints — carrying only the keys changed since the previous epoch —
// append to it. The manifest records the chain, Restore fetches base +
// deltas and replays them per recovering instance, and a superseded chain
// is freed only after the next base commit lands, so a crash mid-save never
// leaves the instance without a restorable checkpoint.
package checkpoint

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

// Mode selects the fault-tolerance strategy.
type Mode int

const (
	// ModeOff disables checkpointing (the paper's "No FT" configuration).
	ModeOff Mode = iota
	// ModeAsync is the paper's contribution: dirty-state checkpoints that
	// let processing continue while the snapshot is serialised.
	ModeAsync
	// ModeSync stops processing for the duration of the checkpoint, as
	// Naiad and SEEP do; used by the baselines and Fig. 12.
	ModeSync
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAsync:
		return "async"
	case ModeSync:
		return "sync"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// EpochRef names one committed epoch of a chain: its number, how many
// chunks it wrote, their total payload bytes, and whether it is a delta.
type EpochRef struct {
	Epoch  uint64
	Chunks int
	Bytes  int64
	Delta  bool
}

// Meta describes one committed checkpoint of one SE instance. The
// per-TE maps cover the TE instances colocated with the SE instance (the
// ones whose processing mutates it): their input watermark vectors, output
// sequence counters and output buffers all ride with the snapshot so a
// restored node resumes log-based recovery exactly where the snapshot was
// taken (§5).
type Meta struct {
	SE        string          // SE instance identity, e.g. "coOcc/1"
	Epoch     uint64          // monotonically increasing per instance
	Chunks    int             // number of chunks written by this epoch
	Delta     bool            // this epoch is an incremental delta
	StoreType state.StoreType // for reconstruction
	// Chain is the epoch chain needed to rebuild the state: the base epoch
	// followed by the committed delta epochs in apply order. Save fills it
	// on commit; a full checkpoint's chain is just its own epoch.
	Chain      []EpochRef
	Watermarks map[int]map[uint64]uint64 // TE id -> origin -> last seq
	OutSeqs    map[int]uint64            // TE id -> output seq counter
	Buffered   map[int][][]core.Item     // TE id -> per-out-edge buffers
}

// Result reports the cost of taking one checkpoint. Whether the epoch was
// incremental is recorded in Meta.Delta.
type Result struct {
	Meta         Meta
	Bytes        int64         // chunk payload written to backup disks
	StateBytes   int64         // approximate in-memory state size at snapshot time
	Duration     time.Duration // wall time for the whole procedure
	LockTime     time.Duration // time the SE was locked (merge for async)
	MergedDirty  int           // dirty entries consolidated (async only)
	SnapshotTime time.Duration // serialisation time
}

// Backup is the checkpoint store: it spreads chunks over m backup nodes and
// keeps the manifest of the latest committed checkpoint chain per SE
// instance. The manifest plays the role of cluster metadata that survives
// worker failures.
type Backup struct {
	cl      *cluster.Cluster
	targets []*cluster.Node

	mu        sync.Mutex
	manifests map[string]Meta
}

// NewBackup creates a backup store over the given target nodes (m = number
// of targets).
func NewBackup(cl *cluster.Cluster, targets []*cluster.Node) *Backup {
	return &Backup{cl: cl, targets: targets, manifests: make(map[string]Meta)}
}

// Targets reports the number of backup nodes (m).
func (b *Backup) Targets() int { return len(b.targets) }

func chunkName(se string, epoch uint64, idx int) string {
	return fmt.Sprintf("ckpt/%s/%d/%d", se, epoch, idx)
}

func bufName(se string, epoch uint64) string {
	return fmt.Sprintf("ckpt/%s/%d/buffers", se, epoch)
}

// ioPool sizes the bounded worker pool for chunk transfers: enough workers
// to keep every backup disk busy and exploit the cores, but bounded so an
// epoch with hundreds of chunks does not fan out hundreds of goroutines
// (which also destabilises LockTime/Duration accounting on small machines).
func ioPool(jobs, targets int) int {
	w := 2 * goruntime.GOMAXPROCS(0)
	if w < targets {
		w = targets // one in-flight transfer per backup disk minimum
	}
	if w < 2 {
		w = 2
	}
	if w > 32 {
		w = 32
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// runBounded executes fn(0..n-1) on at most workers goroutines.
func runBounded(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Save streams the chunks to the backup nodes (Fig. 4 steps B2-B3: a
// bounded pool of workers streams chunks round-robin across the m targets)
// and commits the manifest. A delta epoch appends to the existing chain; a
// base epoch starts a new chain and frees the superseded one only after
// the new manifest is committed. It reports the payload bytes written.
//
// Delta epochs are validated against the chain before anything touches a
// disk, so an aborted delta save leaves no partial epoch behind.
func (b *Backup) Save(meta Meta, chunks []state.Chunk) (int64, error) {
	if len(b.targets) == 0 {
		return 0, fmt.Errorf("checkpoint: no backup targets")
	}
	b.mu.Lock()
	prev, had := b.manifests[meta.SE]
	b.mu.Unlock()
	if meta.Delta {
		if !had || len(prev.Chain) == 0 {
			return 0, fmt.Errorf("checkpoint: delta epoch %d of %q has no base chain", meta.Epoch, meta.SE)
		}
		if tip := prev.Chain[len(prev.Chain)-1].Epoch; meta.Epoch <= tip {
			return 0, fmt.Errorf("checkpoint: delta epoch %d of %q does not extend chain tip %d", meta.Epoch, meta.SE, tip)
		}
	}
	bufBytes, err := encodeBuffers(meta.Buffered)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: encode buffers: %w", err)
	}
	// chunkBytes counts chunk payload bytes, which Result.Bytes and the
	// chain's compaction rule both read.
	var chunkBytes int64
	for _, c := range chunks {
		chunkBytes += int64(len(c.Data))
	}
	runBounded(len(chunks), ioPool(len(chunks), len(b.targets)), func(i int) {
		c := chunks[i]
		// The header is a separate disk part so the payload is never
		// re-copied into a contiguous header+data slice.
		hdr := chunkHeader(c)
		b.cl.Transfer(int64(len(hdr)) + int64(len(c.Data)))
		b.targets[i%len(b.targets)].Disk.WriteParts(chunkName(meta.SE, meta.Epoch, i), hdr[:], c.Data)
	})
	// Output buffers ride with the first target.
	b.cl.Transfer(int64(len(bufBytes)))
	b.targets[0].Disk.Write(bufName(meta.SE, meta.Epoch), bufBytes)
	total := chunkBytes + int64(len(bufBytes))

	// Commit the manifest under one critical section: the chain is rebuilt
	// from the manifest as it is *now*, so a Save that raced another commit
	// for the same SE cannot silently drop an epoch from the chain. (The
	// store-level dirty flag serialises checkpoints per instance, so the
	// race is unreachable through the runtime; Backup is a public API.)
	meta.Chunks = len(chunks)
	ref := EpochRef{Epoch: meta.Epoch, Chunks: len(chunks), Bytes: chunkBytes, Delta: meta.Delta}
	b.mu.Lock()
	cur, curHad := b.manifests[meta.SE]
	if meta.Delta {
		if !curHad || len(cur.Chain) == 0 || cur.Chain[len(cur.Chain)-1].Epoch != prev.Chain[len(prev.Chain)-1].Epoch {
			// The chain moved under us between validation and commit.
			b.mu.Unlock()
			b.deleteEpoch(meta.SE, ref)
			b.targets[0].Disk.Delete(bufName(meta.SE, meta.Epoch))
			return 0, fmt.Errorf("checkpoint: chain of %q advanced during delta save of epoch %d", meta.SE, meta.Epoch)
		}
		meta.Chain = append(append([]EpochRef(nil), cur.Chain...), ref)
	} else {
		meta.Chain = []EpochRef{ref}
	}
	b.manifests[meta.SE] = meta
	b.mu.Unlock()
	if curHad {
		if meta.Delta {
			// The chain lives on; only the previous epoch's buffer object is
			// superseded (restores read buffers from the chain tip).
			if cur.Epoch != meta.Epoch {
				b.targets[0].Disk.Delete(bufName(meta.SE, cur.Epoch))
			}
		} else {
			// New base committed: the whole previous chain is now free.
			b.gcChain(cur, ref)
		}
	}
	return total, nil
}

// deleteEpoch removes one epoch's chunk objects.
func (b *Backup) deleteEpoch(se string, ref EpochRef) {
	for i := 0; i < ref.Chunks; i++ {
		b.targets[i%len(b.targets)].Disk.Delete(chunkName(se, ref.Epoch, i))
	}
}

// gcChain deletes every chunk object of a superseded chain plus its tip
// buffer object. Called only after the superseding manifest is committed
// (or the SE is forgotten), never mid-chain. An old epoch colliding with
// keep.Epoch is mostly preserved: an instance rebuilt by scaling restarts
// its epoch counter, so a fresh base can reuse an epoch number the old
// chain also used — its first keep.Chunks objects were just overwritten by
// the new epoch, and only the old epoch's excess chunks are freed.
func (b *Backup) gcChain(old Meta, keep EpochRef) {
	refs := old.Chain
	if len(refs) == 0 {
		// Pre-chain manifest (constructed by hand): fall back to the epoch.
		refs = []EpochRef{{Epoch: old.Epoch, Chunks: old.Chunks}}
	}
	for _, ref := range refs {
		if keep.Epoch != 0 && ref.Epoch == keep.Epoch {
			for i := keep.Chunks; i < ref.Chunks; i++ {
				b.targets[i%len(b.targets)].Disk.Delete(chunkName(old.SE, ref.Epoch, i))
			}
			continue
		}
		b.deleteEpoch(old.SE, ref)
	}
	if old.Epoch != keep.Epoch {
		b.targets[0].Disk.Delete(bufName(old.SE, old.Epoch))
	}
}

// Latest returns the manifest of the newest committed checkpoint of the SE
// instance.
func (b *Backup) Latest(se string) (Meta, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.manifests[se]
	return m, ok
}

// ShouldDelta reports whether the epoch after chain may be incremental:
// the chain must start at a base, and its delta epochs together must stay
// under half the base's bytes. Past that point replaying the chain costs
// more than writing a fresh base, so the next epoch compacts. Bytes, not
// epoch count, bound both a restore's length and the coordinator's
// retained memory. Both sinks decide with this one rule: the backup store
// over its manifest chain, the coordinator over the chain it retains per
// SE instance.
func ShouldDelta(chain []EpochRef) bool {
	if len(chain) == 0 || chain[0].Delta {
		return false
	}
	var deltaBytes int64
	for _, d := range chain[1:] {
		deltaBytes += d.Bytes
	}
	return 2*deltaBytes < chain[0].Bytes
}

// RestoreSet holds the ordered chunk groups one recovering instance
// applies: the base epoch's chunks first, then each delta epoch's chunks in
// chain order.
type RestoreSet struct {
	Base   []state.Chunk
	Deltas [][]state.Chunk
}

// Restore implements the n-way parallel restore (Fig. 4 steps R1-R2) over
// a whole epoch chain: every chunk of every chain epoch is read from its
// disk, split into n partitions, and the partitions are grouped per
// recovering instance with base and delta epochs kept apart so each
// instance replays them in order. sets[j] holds the groups for recovering
// instance j. Reads and splits run on a bounded worker pool.
func (b *Backup) Restore(se string, n int) (sets []RestoreSet, meta Meta, err error) {
	meta, ok := b.Latest(se)
	if !ok {
		return nil, Meta{}, fmt.Errorf("checkpoint: no checkpoint for %q", se)
	}
	if n < 1 {
		return nil, Meta{}, state.ErrBadSplit
	}
	chain := meta.Chain
	if len(chain) == 0 {
		chain = []EpochRef{{Epoch: meta.Epoch, Chunks: meta.Chunks}}
	}
	sets = make([]RestoreSet, n)
	for j := range sets {
		sets[j].Deltas = make([][]state.Chunk, len(chain)-1)
	}
	// Flatten the chain into (epoch index, chunk index) jobs.
	type job struct{ ei, ci int }
	var jobs []job
	for ei, ref := range chain {
		for ci := 0; ci < ref.Chunks; ci++ {
			jobs = append(jobs, job{ei, ci})
		}
	}
	var mu sync.Mutex
	errs := make([]error, len(jobs))
	runBounded(len(jobs), ioPool(len(jobs), len(b.targets)), func(idx int) {
		j := jobs[idx]
		ref := chain[j.ei]
		target := b.targets[j.ci%len(b.targets)]
		payload, err := target.Disk.Read(chunkName(se, ref.Epoch, j.ci))
		if err != nil {
			errs[idx] = err
			return
		}
		b.cl.Transfer(int64(len(payload)))
		c, err := decodeChunk(payload)
		if err != nil {
			errs[idx] = err
			return
		}
		parts, err := state.SplitChunk(c, n)
		if err != nil {
			errs[idx] = err
			return
		}
		mu.Lock()
		for g, p := range parts {
			if j.ei == 0 {
				sets[g].Base = append(sets[g].Base, p)
			} else {
				sets[g].Deltas[j.ei-1] = append(sets[g].Deltas[j.ei-1], p)
			}
		}
		mu.Unlock()
	})
	for _, e := range errs {
		if e != nil {
			return nil, Meta{}, fmt.Errorf("checkpoint: restore %q: %w", se, e)
		}
	}
	// Recover buffered output items from the chain tip.
	bufPayload, err := b.targets[0].Disk.Read(bufName(se, meta.Epoch))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("checkpoint: restore buffers for %q: %w", se, err)
	}
	b.cl.Transfer(int64(len(bufPayload)))
	buffered, err := decodeBuffers(bufPayload)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("checkpoint: decode buffers for %q: %w", se, err)
	}
	meta.Buffered = buffered
	return sets, meta, nil
}

// Forget drops the manifest and the stored chain for an SE instance.
func (b *Backup) Forget(se string) {
	b.mu.Lock()
	meta, ok := b.manifests[se]
	delete(b.manifests, se)
	b.mu.Unlock()
	if ok {
		b.gcChain(meta, EpochRef{})
	}
}

// Chunk wire format on backup disks (9-byte header, then the payload):
//
//	[type|0x80 delta][index:4][of:4] data
//
// StoreType values are tiny, so the delta bit rides in byte 0. Bit 0x40
// marked a retired compressed-chunk header and is refused. The header is
// written as a separate disk part so the payload never needs to be copied
// into a contiguous header+data slice.
const (
	chunkDeltaFlag   = 0x80
	chunkRetiredFlag = 0x40
)

func chunkHeader(c state.Chunk) [9]byte {
	var h [9]byte
	h[0] = byte(c.Type)
	if c.Delta {
		h[0] |= chunkDeltaFlag
	}
	h[1] = byte(c.Index >> 24)
	h[2] = byte(c.Index >> 16)
	h[3] = byte(c.Index >> 8)
	h[4] = byte(c.Index)
	h[5] = byte(c.Of >> 24)
	h[6] = byte(c.Of >> 16)
	h[7] = byte(c.Of >> 8)
	h[8] = byte(c.Of)
	return h
}

func decodeChunk(payload []byte) (state.Chunk, error) {
	if len(payload) < 9 || payload[0]&chunkRetiredFlag != 0 {
		return state.Chunk{}, state.ErrBadChunk
	}
	return state.Chunk{
		Type:  state.StoreType(payload[0] &^ chunkDeltaFlag),
		Delta: payload[0]&chunkDeltaFlag != 0,
		Index: int(payload[1])<<24 | int(payload[2])<<16 | int(payload[3])<<8 | int(payload[4]),
		Of:    int(payload[5])<<24 | int(payload[6])<<16 | int(payload[7])<<8 | int(payload[8]),
		Data:  payload[9:],
	}, nil
}

// Output buffers use the flat item codec (uvarint map/slice counts, tagged
// values); payload types outside the flat tag table must be registered
// flat.Payload types, exactly as on the wire.
func encodeBuffers(buffered map[int][][]core.Item) ([]byte, error) {
	e := flat.GetEncoder()
	defer flat.PutEncoder(e)
	e.Uvarint(uint64(len(buffered)))
	for id, edges := range buffered {
		e.Varint(int64(id))
		e.Uvarint(uint64(len(edges)))
		for _, items := range edges {
			e.Uvarint(uint64(len(items)))
			for i := range items {
				if err := e.Item(items[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func decodeBuffers(payload []byte) (map[int][][]core.Item, error) {
	// Copy-mode decode: the disk hands back its stored slice, which must
	// survive the decoded items.
	d := flat.NewDecoder(payload)
	nTE := d.Uvarint()
	// Every TE entry costs at least two bytes (id + edge count); a larger
	// claim is hostile — reject before the map allocation sized by it.
	if nTE > uint64(d.Remaining()) {
		return nil, fmt.Errorf("checkpoint: buffer TE count %d exceeds payload", nTE)
	}
	out := make(map[int][][]core.Item, nTE)
	for t := uint64(0); t < nTE && d.Err() == nil; t++ {
		id := int(d.Varint())
		nEdges := d.Uvarint()
		// Every edge costs at least its one-byte count; a larger claim is
		// hostile — reject before allocating.
		if nEdges > uint64(d.Remaining()) {
			return nil, fmt.Errorf("checkpoint: buffer edge count %d exceeds payload", nEdges)
		}
		edges := make([][]core.Item, nEdges)
		for ei := uint64(0); ei < nEdges && d.Err() == nil; ei++ {
			nItems := d.Uvarint()
			if nItems > uint64(d.Remaining()) {
				return nil, fmt.Errorf("checkpoint: buffer item count %d exceeds payload", nItems)
			}
			if nItems == 0 {
				continue
			}
			items := make([]core.Item, 0, nItems)
			for i := uint64(0); i < nItems && d.Err() == nil; i++ {
				items = append(items, d.Item())
			}
			edges[ei] = items
		}
		out[id] = edges
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !d.Done() {
		return nil, fmt.Errorf("checkpoint: %d trailing buffer byte(s)", d.Remaining())
	}
	return out, nil
}
