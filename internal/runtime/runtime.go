// Package runtime executes stateful dataflow graphs (§3.3): it materialises
// the whole SDG (no task scheduler), pins TE and SE instances to simulated
// cluster nodes following the four-step allocator, pipelines items through
// per-instance queues with backpressure, enforces the dispatching semantics
// of §4.2, runs the checkpointing loops of §5, recovers failed nodes with
// m-to-n restores plus upstream replay, and reacts to bottlenecks and
// stragglers by growing TE/SE instances at runtime (§3.3, Fig. 10).
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/wire"
	"repro/internal/wire/flat"
)

// externalOrigin identifies items injected from outside the SDG.
const externalOrigin = ^uint64(0)

// backupNodes is the number of backup nodes a deployment provisions when
// Options.Backup is nil.
const backupNodes = 2

// Options configures a deployment.
type Options struct {
	// Cluster supplies the nodes; a fresh unbounded-disk cluster is created
	// when nil.
	Cluster *cluster.Cluster
	// QueueLen bounds each instance's inbound queue (default 1024). The
	// queue carries micro-batches, so with BatchSize > 1 the item-count
	// bound is QueueLen x the typical batch size.
	QueueLen int
	// OverflowLen is the flow-control watermark in items (default
	// 4 x QueueLen). Two roles: a TE whose parked overflow reaches
	// OverflowLen x its live instance count is backpressured, which
	// revokes ingress admission credits graph-wide until it drains (or
	// gains instances); and an entry TE whose backlog (queued + parked +
	// in-flight) reaches it stops admitting external items per
	// InjectPolicy. Intra-graph edges never drop or block regardless —
	// the bound is enforced where callers can be told, at ingress.
	OverflowLen int
	// InjectPolicy selects the ingress admission behaviour when an entry
	// TE is over its OverflowLen backlog or the graph is backpressured:
	// InjectBlock (default) waits for capacity, preserving the historical
	// blocking semantics; InjectShed fails fast with ErrOverloaded.
	InjectPolicy InjectPolicy
	// InjectDeadline bounds how long InjectBlock admission waits before
	// giving up with ErrOverloaded (0 = wait forever).
	InjectDeadline time.Duration
	// BatchSize sets the micro-batch target for the item hot path: each
	// worker coalesces up to this many queued items before taking the
	// pause lock and dedup filter once for the whole batch, and emissions
	// buffer per out-edge until this many items are pending. Batches flush
	// on idle — a worker never waits for more input, so BatchSize only
	// amortises overhead under load and adds no latency when the pipeline
	// is drained. Default 1 preserves per-item dispatch semantics exactly.
	BatchSize int
	// Partitions sets the initial instance count per SE name (default 1).
	// TEs accessing an SE always have exactly as many instances as the SE.
	Partitions map[string]int
	// Checkpointing.
	Mode     checkpoint.Mode
	Interval time.Duration // checkpoint period (default 10s, as in §6)
	Backup   *checkpoint.Backup
	// DeltaCheckpoints enables incremental epochs: after an instance's
	// first full checkpoint, subsequent epochs serialise only the keys
	// changed since the previous epoch (plus tombstones) until
	// checkpoint.ShouldDelta calls for a fresh base. A store built by an
	// SE's own builder that cannot track changed keys keeps taking full
	// checkpoints.
	DeltaCheckpoints bool
	// WireCheck round-trips every delivered payload through the flat value
	// codec, verifying the location-independence restriction of §4.1
	// ("each object accessed in the program must support transparent
	// serialisation"): a payload with no codec fails loudly instead of
	// silently sharing memory.
	WireCheck bool
	// Shard, when non-nil, deploys this runtime as one worker's slice of a
	// multi-worker deployment: only the configured shard of each TE/SE is
	// instantiated, origin ids and partition routing use global instance
	// identities, and edges whose destination has instances elsewhere
	// deliver over the cross-worker data plane (see remoteedge.go).
	// In-process elasticity and recovery (ScaleUp/ScaleDown/Recover) are
	// unavailable in this mode — the coordinator owns them.
	Shard *ShardConfig
}

func (o *Options) defaults() {
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.OverflowLen <= 0 {
		o.OverflowLen = 4 * o.QueueLen
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
}

// Runtime is a deployed SDG.
type Runtime struct {
	graph *core.Graph
	opts  Options
	cl    *cluster.Cluster
	bk    *checkpoint.Backup

	tes []*teState
	ses []*seState

	// net is the cross-worker data plane; nil unless Options.Shard places
	// this runtime in a multi-worker deployment.
	net *remoteNet

	// pmu guards the pauseMu registry itself; a leaf below every other
	// lock.
	//sdg:lockorder pausemap 95
	pmu sync.Mutex
	//sdg:lockorder pause 40
	pauseMu map[int]*sync.RWMutex // per node: held (R) while processing

	reqSeq  atomic.Uint64 // request ids for Call
	extSeq  atomic.Uint64 // seq numbers for externally injected items
	replyMu sync.Mutex
	replies map[uint64]chan any

	// parked upper-bounds the items currently parked across every
	// instance's overflow: enqueue adds on park, workers subtract what
	// they promote, and recovery subtracts what it discards with a
	// replaced instance. Zero means no TE can be backpressured, letting
	// the admission fast path skip the per-instance graph scan; races
	// around recovery only ever leave the bound high (scan runs anyway),
	// never low.
	parked atomic.Int64

	// scaleMu serialises scaling in both directions: ScaleUp and ScaleDown
	// quiesce the graph with no other locks held, so two concurrent
	// reshapes (or the auto-scaler racing a manual call) must not
	// interleave their fence / swap phases.
	//sdg:lockorder scale 10
	scaleMu sync.Mutex

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	// Latency of Call round trips, recorded centrally for experiments.
	CallLatency *metrics.Histogram
	// BatchSizes records the size of every processed micro-batch, so
	// operators can see how well the pipeline coalesces under load.
	BatchSizes *metrics.Distribution
	// AdmitLatency records, in nanoseconds, how long each external
	// injection waited for admission (0 for the uncontended fast path), so
	// operators can see ingress pressure building before items shed.
	AdmitLatency *metrics.Distribution
}

// teState tracks one task element and its live instances.
type teState struct {
	def *core.TE
	//sdg:lockorder testate 60
	mu       sync.RWMutex
	insts    []*teInstance
	out      []*edgeRT
	hasInAll bool // any inbound all-to-one edge => gather barrier
	// shard is this worker's global slice of the TE in a sharded
	// deployment; zero-valued (Total 0) when the runtime owns every
	// instance, in which case local indices are the global identities.
	shard wire.Shard
	// serialEmit forces per-emission flushing: when two out-edges share a
	// destination TE, buffered per-edge flushing could deliver a later
	// seq before an earlier one to the same instance, and the shared
	// per-origin dedup watermark would then drop the earlier item for
	// good. Such TEs trade the flush amortisation for seq-order delivery.
	serialEmit bool
	ckptWM     map[int]wire.SnapPart // instance idx -> PartTE of its last checkpoint
	// srcBuf logs externally injected items for entry TEs so post-checkpoint
	// inputs replay after failures; nil when fault tolerance is off.
	srcBuf *dataflow.OutputBuffer
	// injMu serialises external injection end to end — seq assignment,
	// srcBuf logging and enqueueing — so concurrent injectors cannot
	// reorder seqs on their way to one entry instance (the per-origin
	// dedup watermark would silently drop the overtaken item forever).
	//sdg:lockorder inject 20
	injMu sync.Mutex
	// shed counts externally offered items rejected by admission control.
	shed atomic.Int64
	// retiredSeqs remembers, per instance index, the output seq counter of
	// instances retired by scale-in. A later scale-up reusing the index
	// resumes numbering from there: the origin id is (TE, idx), and a fresh
	// counter would emit seqs already recorded in downstream dedup
	// watermarks, which would drop the new instance's output for good.
	// Guarded by mu.
	retiredSeqs map[int]uint64
	// retiredProcessed accumulates the processed counters of retired
	// instances so Processed/Stats stay monotonic across scale-in — their
	// work happened, it must not vanish from the books with the worker.
	retiredProcessed atomic.Int64

	// instEpoch versions insts: every mutation (scale-up, scale-down,
	// recovery) bumps it under mu, invalidating the cached snapshot below.
	instEpoch atomic.Uint64
	// snap caches an immutable copy of insts so the delivery hot path
	// reads the instance set without a lock or a per-item slice copy.
	snap atomic.Pointer[instSnapshot]
}

// instSnapshot is an immutable view of a TE's instance set at one epoch.
type instSnapshot struct {
	epoch uint64
	insts []*teInstance
}

// instances returns the TE's live instance slice from the epoch-versioned
// cache, rebuilding it under the read lock only after a topology change.
// The returned slice is immutable and safe to read without ts.mu.
func (ts *teState) instances() []*teInstance {
	if s := ts.snap.Load(); s != nil && s.epoch == ts.instEpoch.Load() {
		return s.insts
	}
	ts.mu.RLock()
	s := &instSnapshot{
		epoch: ts.instEpoch.Load(),
		insts: append([]*teInstance(nil), ts.insts...),
	}
	ts.mu.RUnlock()
	ts.snap.Store(s)
	return s.insts
}

// bumpInstances invalidates the cached instance snapshot. Callers must hold
// ts.mu exclusively and call it after every mutation of ts.insts.
func (ts *teState) bumpInstances() {
	ts.instEpoch.Add(1)
}

// edgeRT is a dataflow edge prepared for dispatch. remote is the delivery
// seam: nil keeps the destination fully in-process (today's zero-alloc
// path); non-nil means the destination TE has instances on other workers
// and dispatch goes through deliverRemote.
type edgeRT struct {
	def    *core.Edge
	router *dataflow.Router
	to     *teState
	remote *remoteEdge
}

// routeScratch holds the reusable buffers one sender needs to group a
// micro-batch into per-destination sub-batches without per-item allocation.
type routeScratch struct {
	targets []int         // one destination index per item
	counts  []int         // items per destination, indexed by instance
	batches [][]core.Item // per-destination sub-batch headers during a flush
	dsts    []*teInstance // live destination set for broadcasts
}

// teInstance is one pipelined worker (§3.1: TEs are materialised, not
// scheduled).
type teInstance struct {
	te   *teState
	idx  int
	node *cluster.Node

	queue chan []core.Item // inbound micro-batches
	dead  chan struct{}
	// exited closes when the worker goroutine has returned: after it, no
	// invoke of this instance runs or starts.
	exited  chan struct{}
	dedup   *dataflow.Dedup
	gather  *dataflow.Gather
	outBufs []*dataflow.OutputBuffer
	seqCtr  atomic.Uint64

	// overflow parks inbound batches that found the queue full, so senders
	// never block on this instance (deadlock-free dispatch); the worker
	// promotes parked batches back into the queue as slots free up. kick
	// wakes an idle worker when a batch parks while the queue is empty.
	overflow *dataflow.Overflow
	kick     chan struct{}

	// queued tracks inbound items (not batches) across the queue and the
	// batch currently being processed; load balancing, bottleneck
	// detection and Drain read it instead of len(queue).
	queued    atomic.Int64
	processed atomic.Int64
	killed    atomic.Bool

	// Worker-owned scratch, reused across batches so the steady-state hot
	// path allocates nothing per item. Only the worker goroutine touches
	// these (pendingOut additionally from Fn via the reused execCtx).
	inBatch    []core.Item   // coalesced inbound batch
	freshBatch []core.Item   // dedup-filtered view of inBatch
	pendingOut [][]core.Item // emissions buffered per out-edge
	route      routeScratch
	ectx       execCtx
}

// originID identifies the instance as an item origin: TE id in the high
// bits, *global* instance index in the low bits (shard.First is 0 outside
// sharded deployments). Replacement instances reuse the identity so dedup
// works across recoveries, and two workers hosting different slices of one
// TE can never collide in a receiver's watermark map.
func (ti *teInstance) originID() uint64 {
	return uint64(ti.te.def.ID)<<32 | uint64(ti.te.shard.First+ti.idx)
}

// seState tracks one state element and its live instances.
type seState struct {
	def *core.SE
	//sdg:lockorder sstate 50
	mu    sync.RWMutex
	insts []*seInstance
	// ckptGate excludes checkpoints from structural rebuilds: CheckpointNow
	// read-holds it for the whole procedure (instance fetch through save and
	// merge), and a reshape write-holds it across the destructive
	// store rebuild and swap. Without it, a checkpoint goroutine that
	// fetched its instance just before the swap could still flip the store
	// dirty — mid-rebuild — or commit a stale pre-swap epoch after the
	// post-reshape base. Lock order: ckptGate before mu.
	//sdg:lockorder ckptgate 30
	ckptGate sync.RWMutex
}

// seInstance is one SE partition or partial replica, colocated with the
// TE instances of the same index.
type seInstance struct {
	se    *seState
	idx   int
	node  *cluster.Node
	store state.Store
	epoch atomic.Uint64
	// chained is set once this instance has committed a checkpoint of its
	// own, anchoring the backup chain to this store's tracker. Fresh and
	// recovered instances start false, so their first epoch is always a
	// full base — a delta appended to a chain the live store never cut
	// against would restore the wrong state.
	chained atomic.Bool
}

// instName is the durable identity of an SE instance for the backup store.
func (si *seInstance) instName() string {
	return fmt.Sprintf("%s/%d", si.se.def.Name, si.idx)
}

// Deploy validates the graph, allocates it to nodes and starts all workers.
func Deploy(g *core.Graph, opts Options) (*Runtime, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	if opts.Shard != nil {
		if err := opts.Shard.validate(); err != nil {
			return nil, err
		}
		// Private copy: the dialer default must not leak into the caller's
		// config.
		sc := *opts.Shard
		if sc.Dialer == nil {
			sc.Dialer = func(addr string) (cluster.Transport, error) {
				c, err := cluster.Dial(addr)
				if err != nil {
					return nil, err
				}
				c.SetCallTimeout(10 * time.Second)
				return c, nil
			}
		}
		opts.Shard = &sc
	}
	cl := opts.Cluster
	if cl == nil {
		cl = cluster.New(0, cluster.Config{})
	}
	r := &Runtime{
		graph:        g,
		opts:         opts,
		cl:           cl,
		replies:      make(map[uint64]chan any),
		stopped:      make(chan struct{}),
		pauseMu:      make(map[int]*sync.RWMutex),
		CallLatency:  metrics.NewHistogram(0),
		BatchSizes:   metrics.NewDistribution(4096),
		AdmitLatency: metrics.NewDistribution(4096),
	}

	// Backup store for checkpoints.
	if opts.Backup != nil {
		r.bk = opts.Backup
	} else if opts.Mode != checkpoint.ModeOff {
		targets := make([]*cluster.Node, backupNodes)
		for i := range targets {
			targets[i] = cl.AddNode()
		}
		r.bk = checkpoint.NewBackup(cl, targets)
	}

	// Allocation per §3.3; nodes are created on demand to honour it.
	alloc := g.Allocate()
	nodeOf := make(map[int]*cluster.Node) // allocation node id -> cluster node
	getNode := func(allocID int) *cluster.Node {
		if n, ok := nodeOf[allocID]; ok {
			return n
		}
		n := cl.AddNode()
		nodeOf[allocID] = n
		return n
	}

	// Build SE states.
	for _, se := range g.SEs {
		r.ses = append(r.ses, &seState{def: se})
	}
	// Build TE states and edges.
	for _, te := range g.TEs {
		ts := &teState{def: te}
		for _, e := range g.InEdges(te.ID) {
			if e.Dispatch == core.DispatchAllToOne {
				ts.hasInAll = true
			}
		}
		if te.Entry && opts.Mode != checkpoint.ModeOff {
			ts.srcBuf = &dataflow.OutputBuffer{}
		}
		r.tes = append(r.tes, ts)
	}
	for _, ts := range r.tes {
		seen := map[int]bool{}
		for _, e := range r.graph.OutEdges(ts.def.ID) {
			ts.out = append(ts.out, &edgeRT{
				def:    e,
				router: &dataflow.Router{Dispatch: e.Dispatch},
				to:     r.tes[e.To],
			})
			if seen[e.To] {
				ts.serialEmit = true
			}
			seen[e.To] = true
		}
	}

	// Instantiate SEs with their initial partition counts, then TEs
	// colocated with them.
	for _, ss := range r.ses {
		n := 1
		if opts.Partitions != nil {
			if p, ok := opts.Partitions[ss.def.Name]; ok && p > 0 {
				n = p
			}
		}
		if opts.Shard != nil {
			// Only this worker's slice of the global partition set is
			// instantiated; a worker may legitimately hold zero instances.
			n = shardFor(opts.Shard.SEs, ss.def.Name, opts.Shard.Worker, opts.Shard.Workers).Count
		}
		base := getNode(alloc.SENode[ss.def.ID])
		for i := 0; i < n; i++ {
			node := base
			if i > 0 {
				// Additional partitions/replicas each get their own node,
				// mirroring distributed SEs spanning nodes (§3.2).
				node = cl.AddNode()
			}
			store, err := r.newStore(ss.def)
			if err != nil {
				return nil, err
			}
			ss.insts = append(ss.insts, &seInstance{se: ss, idx: i, node: node, store: store})
		}
	}
	for _, ts := range r.tes {
		n := 1
		var colocate *seState
		if ts.def.Access != nil {
			colocate = r.ses[ts.def.Access.SE]
			n = len(colocate.insts)
		}
		if opts.Shard != nil {
			ts.shard = shardFor(opts.Shard.TEs, ts.def.Name, opts.Shard.Worker, opts.Shard.Workers)
			if colocate == nil {
				n = ts.shard.Count
			}
		}
		for i := 0; i < n; i++ {
			var node *cluster.Node
			if colocate != nil {
				node = colocate.insts[i].node
			} else {
				node = getNode(alloc.TENode[ts.def.ID])
			}
			ti := r.newInstance(ts, i, node)
			ts.insts = append(ts.insts, ti)
		}
	}

	// Cross-worker data plane: edges whose destination TE has instances on
	// other workers carry the remote half of the delivery seam. The edge's
	// wire identity is its position in Graph.Edges, which every worker
	// (building the same registered graph) agrees on.
	if opts.Shard != nil && opts.Shard.Workers > 1 {
		r.net = newRemoteNet(r, opts.Shard)
		edgeIdx := make(map[*core.Edge]int, len(g.Edges))
		for i, e := range g.Edges {
			edgeIdx[e] = i
		}
		for _, ts := range r.tes {
			for _, e := range ts.out {
				gi := edgeIdx[e.def]
				r.net.edgeTo[gi] = e.to
				if e.to.shard.Count < e.to.shard.Total {
					e.remote = &remoteEdge{net: r.net, idx: gi}
				}
			}
		}
		r.net.start()
	}

	// Start workers and checkpoint loops.
	for _, ts := range r.tes {
		for _, ti := range ts.insts {
			r.startWorker(ti)
		}
	}
	if r.opts.Mode != checkpoint.ModeOff {
		for _, ss := range r.ses {
			for _, si := range ss.insts {
				r.startCheckpointLoop(si)
			}
		}
	}
	return r, nil
}

// newStore instantiates the backing store for an SE.
func (r *Runtime) newStore(def *core.SE) (state.Store, error) {
	st, err := def.NewStore()
	if err != nil {
		return nil, err
	}
	// Only track changed keys when a checkpoint loop will actually cut the
	// tracker: with checkpointing off the set would grow without bound.
	if r.opts.DeltaCheckpoints && r.opts.Mode != checkpoint.ModeOff {
		st.EnableDeltaTracking()
	}
	return st, nil
}

// newInstance builds (but does not start) a TE instance on a node.
func (r *Runtime) newInstance(ts *teState, idx int, node *cluster.Node) *teInstance {
	ti := &teInstance{
		te:       ts,
		idx:      idx,
		node:     node,
		queue:    make(chan []core.Item, r.opts.QueueLen),
		dead:     make(chan struct{}),
		exited:   make(chan struct{}),
		dedup:    dataflow.NewDedup(),
		outBufs:  make([]*dataflow.OutputBuffer, len(ts.out)),
		overflow: &dataflow.Overflow{},
		kick:     make(chan struct{}, 1),
	}
	for i := range ti.outBufs {
		ti.outBufs[i] = &dataflow.OutputBuffer{}
	}
	ti.pendingOut = make([][]core.Item, len(ts.out))
	ti.ectx = execCtx{r: r, ti: ti}
	if ts.hasInAll {
		ti.gather = dataflow.NewGather()
	}
	// Resume the seq numbering of a retired predecessor with the same origin
	// id, so downstream watermarks never see this instance's output as stale.
	if seq, ok := ts.retiredSeqs[idx]; ok {
		ti.seqCtr.Store(seq)
	}
	return ti
}

// startWorker launches the pipelined processing loop of one TE instance:
// receive a micro-batch, coalesce whatever else is already queued up to
// BatchSize items (flush-on-idle: never wait for more input), then take the
// pause lock once and run the whole batch.
func (r *Runtime) startWorker(ti *teInstance) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(ti.exited)
		pause := r.pauseFor(ti.node)
		max := r.opts.BatchSize
		for {
			var batch []core.Item
			select {
			case <-r.stopped:
				return
			case <-ti.dead:
				return
			case batch = <-ti.queue:
			case <-ti.kick:
				// A batch parked while the queue was empty (the park and the
				// final promote raced); fall through to promote it.
			}
			if batch != nil {
				items := batch
				if max > 1 {
				coalesce:
					for len(items) < max {
						select {
						case more := <-ti.queue:
							// Copy-on-extend: the received slices are owned
							// by this worker, but coalescing needs a single
							// contiguous batch in the reusable buffer.
							if len(ti.inBatch) == 0 {
								ti.inBatch = append(ti.inBatch[:0], items...)
							}
							ti.inBatch = append(ti.inBatch, more...)
							items = ti.inBatch
						default:
							break coalesce
						}
					}
				}
				// Process in chunks of at most BatchSize: coalescing can
				// overshoot (whole queued batches append), and replay paths
				// enqueue whole output buffers, but the per-chunk
				// bookkeeping window — one pause hold, one dedup pass
				// before any flush — must never exceed the configured
				// batch size (at BatchSize=1 this is exactly the per-item
				// runtime's behaviour). A dead instance runs no further
				// chunk: the select above picks at random when both are
				// ready, and a kill must stop a batch within one chunk,
				// which is all Recover waits for (exited).
				for start := 0; start < len(items); start += max {
					select {
					case <-ti.dead:
						return
					default:
					}
					end := start + max
					if end > len(items) {
						end = len(items)
					}
					// A paused node (sync checkpoint) blocks here.
					pause.RLock()
					r.processBatch(ti, items[start:end])
					pause.RUnlock()
				}
				ti.queued.Add(-int64(len(items)))
				// Reuse the coalesce buffer, but do not let one oversized
				// replay batch pin its high-water capacity (and the Items'
				// payload pointers) for the instance's lifetime.
				if cap(ti.inBatch) > 4*max && cap(ti.inBatch) > 64 {
					ti.inBatch = nil
				} else {
					ti.inBatch = ti.inBatch[:0]
				}
			}
			// Opportunistically refill the queue from parked overflow: the
			// batch just processed (and any the coalesce loop drained) freed
			// slots.
			if moved := ti.overflow.Promote(ti.queue); moved > 0 {
				r.parked.Add(-moved)
			}
		}
	}()
}

// pauseFor returns the lazily created pause lock of one node.
//
//sdg:lockorder returns pause
func (r *Runtime) pauseFor(node *cluster.Node) *sync.RWMutex {
	r.pmu.Lock()
	mu, ok := r.pauseMu[node.ID]
	if !ok {
		mu = &sync.RWMutex{}
		r.pauseMu[node.ID] = mu
	}
	r.pmu.Unlock()
	return mu
}

// processBatch runs one micro-batch through the TE's function. The dedup
// filter is applied once for the whole batch; merge TEs with a gather
// barrier keep per-item bookkeeping because duplicates must still refill
// pending waves (see Gather.Refill). Buffered emissions flush after the
// batch so downstream delivery amortises routing and enqueueing.
func (r *Runtime) processBatch(ti *teInstance, items []core.Item) {
	if r.opts.BatchSize > 1 {
		// In per-item mode every batch has size 1 by construction; skipping
		// the record keeps the one cross-worker mutex in this function off
		// the per-item path.
		r.BatchSizes.Record(int64(len(items)))
	}
	if ti.gather == nil {
		ti.freshBatch = ti.dedup.FreshBatch(items, ti.freshBatch[:0])
		fresh := ti.freshBatch
		for i := range fresh {
			r.invoke(ti, &fresh[i])
		}
	} else {
		// Partials in one batch usually share a request id; memoise the
		// callWaiting lookup so the global reply mutex is taken once per
		// wave per batch, not once per partial.
		var memoReq uint64
		var memoWaiting, memoValid bool
		waiting := func(reqID uint64) bool {
			if !memoValid || memoReq != reqID {
				memoReq, memoWaiting, memoValid = reqID, r.callWaiting(reqID), true
			}
			return memoWaiting
		}
		for i := range items {
			it := items[i]
			var coll core.Collection
			var done bool
			if ti.dedup.Fresh(it) && (it.ReqID == 0 || waiting(it.ReqID)) {
				coll, done = ti.gather.Add(it)
			} else {
				// Duplicates, and fresh partials whose Call has already
				// returned or timed out, may only fill holes in pending
				// waves: a replayed duplicate completes a wave whose
				// original partial died with a failed instance, while a
				// partial for an abandoned request must not (re)create a
				// wave nobody will ever complete — that would leak the
				// very waves Recover evicts.
				coll, done = ti.gather.Refill(it)
			}
			if !done {
				continue
			}
			it.Value = coll
			r.invoke(ti, &it)
		}
	}
	r.flushOut(ti)
}

// invoke runs the TE function on one item through the instance's reused
// execution context.
func (r *Runtime) invoke(ti *teInstance, it *core.Item) {
	ti.node.Penalize()
	ti.ectx.cur = it
	ti.te.def.Fn(&ti.ectx, *it)
	ti.ectx.cur = nil
	ti.processed.Add(1)
}

// flushOut logs and delivers every buffered emission, edge by edge. Called
// after each batch and whenever one edge's pending buffer reaches the batch
// size mid-batch.
func (r *Runtime) flushOut(ti *teInstance) {
	for edge := range ti.pendingOut {
		if len(ti.pendingOut[edge]) > 0 {
			r.flushEdge(ti, edge)
		}
	}
}

// flushEdge logs one edge's pending emissions to the replay buffer and
// routes them downstream, then resets the pending buffer for reuse. A cut
// edge runs in a worker, whose out-edge logs serve only the next snapshot
// cut, and the cut keeps just what a local destination has not processed
// (trimToBacklog). Destinations only move forward, so such a log sheds
// that prefix as it goes instead of holding every item until the cut.
func (r *Runtime) flushEdge(ti *teInstance, edge int) {
	pend, e, b := ti.pendingOut[edge], ti.te.out[edge], ti.outBufs[edge]
	b.AppendBatch(pend)
	r.deliverBatch(e, pend, &ti.route)
	if e.remote != nil {
		origin, floor := ti.originID(), ^uint64(0)
		for _, dst := range e.to.instances() {
			floor = min(floor, dst.dedup.Last(origin))
		}
		b.TrimPrefix(origin, floor)
	}
	ti.pendingOut[edge] = pend[:0]
}

// deliverBatch routes a micro-batch over an edge to the downstream
// instances. items is caller-owned scratch: every enqueued sub-batch is a
// fresh copy, so receivers own their slices and the caller may reuse items
// immediately. In the steady state the only allocations are those copies —
// one per destination per flush — so the per-item cost vanishes as the
// batch grows.
func (r *Runtime) deliverBatch(e *edgeRT, items []core.Item, rs *routeScratch) {
	if len(items) == 0 {
		return
	}
	if r.opts.WireCheck {
		// Deliver a deep copy made by the flat codec, as a real link would:
		// a payload with no codec panics at the edge it would break on.
		for i := range items {
			if items[i].Value == nil {
				continue
			}
			v, err := flat.RoundTripValue(items[i].Value)
			if err != nil {
				panic(fmt.Sprintf("runtime: payload %T violates location independence: %v", items[i].Value, err))
			}
			items[i].Value = v
		}
	}
	if e.remote != nil {
		r.deliverRemote(e, items, rs, e.remote.net)
		return
	}
	insts := e.to.instances()
	if len(insts) == 0 {
		return
	}
	switch {
	case e.def.Dispatch == core.DispatchOneToAll:
		// The broadcast wave fixes the collection size for a later merge.
		// Count only live targets: killed instances drop their copy, and a
		// Parts count that includes them would leave the gather barrier
		// waiting forever for partials that can never arrive. One liveness
		// scan collects the exact destination set so Parts always equals
		// the number of copies enqueued — a second scan could disagree with
		// the count if an instance died in between. (A kill after the scan
		// is the general fail-any-time case, recovered by replay, which
		// recomputes Parts, and by Gather.Refill.)
		if cap(rs.dsts) < len(insts) {
			rs.dsts = make([]*teInstance, 0, len(insts))
		}
		rs.dsts = rs.dsts[:0]
		for _, dst := range insts {
			if !dst.killed.Load() && !dst.node.Failed() {
				rs.dsts = append(rs.dsts, dst)
			}
		}
		live := len(rs.dsts)
		for _, dst := range rs.dsts {
			b := make([]core.Item, len(items))
			copy(b, items)
			for i := range b {
				b[i].Parts = live
			}
			r.enqueue(dst, b)
		}
		for i := range rs.dsts {
			rs.dsts[i] = nil // do not pin instances until the next broadcast
		}
	case e.def.Dispatch == core.DispatchOneToAny:
		// "Dispatched to an arbitrary instance ... for load-balancing"
		// (§3.1): the whole batch goes to the least-loaded live instance,
		// so stragglers absorb only what they can process instead of
		// capping the pipeline at n x the slowest rate.
		var best *teInstance
		var bestLen int64
		for _, dst := range insts {
			if dst.killed.Load() || dst.node.Failed() {
				continue
			}
			if q := dst.queued.Load(); best == nil || q < bestLen {
				best, bestLen = dst, q
			}
		}
		if best == nil {
			return
		}
		b := make([]core.Item, len(items))
		copy(b, items)
		r.enqueue(best, b)
	default:
		rs.targets = e.router.RouteBatch(items, len(insts), rs.targets[:0])
		r.enqueueGrouped(insts, items, rs)
	}
}

// enqueueGrouped splits a routed batch into per-destination sub-batches and
// enqueues them. Grouping reuses the sender's scratch counters; the only
// allocations are the receiver-owned sub-batch slices.
func (r *Runtime) enqueueGrouped(insts []*teInstance, items []core.Item, rs *routeScratch) {
	// Fast path: the whole batch routes to a single destination.
	single := true
	for _, t := range rs.targets[1:] {
		if t != rs.targets[0] {
			single = false
			break
		}
	}
	if single {
		dst := insts[rs.targets[0]]
		if dst.killed.Load() || dst.node.Failed() {
			// Dropped; upstream buffers replay it after recovery.
			return
		}
		b := make([]core.Item, len(items))
		copy(b, items)
		r.enqueue(dst, b)
		return
	}
	if cap(rs.counts) < len(insts) {
		rs.counts = make([]int, len(insts))
		rs.batches = make([][]core.Item, len(insts))
	}
	rs.counts = rs.counts[:len(insts)]
	rs.batches = rs.batches[:len(insts)]
	for i := range rs.counts {
		rs.counts[i] = 0
	}
	for _, t := range rs.targets {
		rs.counts[t]++
	}
	// Pre-size one receiver-owned sub-batch per live destination, then fill
	// them all in a single pass over the targets — O(items + destinations).
	for dstIdx, n := range rs.counts {
		rs.batches[dstIdx] = nil
		if n == 0 {
			continue
		}
		dst := insts[dstIdx]
		if dst.killed.Load() || dst.node.Failed() {
			// Stays nil: the items drop and upstream buffers replay them
			// after recovery.
			continue
		}
		rs.batches[dstIdx] = make([]core.Item, 0, n)
	}
	for i, t := range rs.targets {
		if rs.batches[t] != nil {
			rs.batches[t] = append(rs.batches[t], items[i])
		}
	}
	for dstIdx, b := range rs.batches {
		if len(b) > 0 {
			r.enqueue(insts[dstIdx], b)
		}
		rs.batches[dstIdx] = nil // ownership moved to the receiver
	}
}

// enqueue hands one receiver-owned micro-batch to an instance. It never
// blocks: a batch that finds the queue full parks in the destination's
// overflow, to be promoted by the destination's own worker. That keeps
// every producer-side wait out of the dispatch path — a worker blocked on
// another worker's queue is how cyclic topologies distributed-deadlock —
// and turns sustained pressure into an observable saturation signal that
// revokes ingress credits instead of wedging the graph.
func (r *Runtime) enqueue(dst *teInstance, b []core.Item) {
	dst.queued.Add(int64(len(b)))
	if dst.overflow.Offer(dst.queue, b) {
		r.parked.Add(int64(len(b)))
		// Wake the worker in case it is idle on an empty queue (the park
		// and its final promote can race); the 1-slot kick never blocks.
		select {
		case dst.kick <- struct{}{}:
		default:
		}
	}
}

// te looks a TE up by name.
func (r *Runtime) te(name string) (*teState, error) {
	for _, ts := range r.tes {
		if ts.def.Name == name {
			return ts, nil
		}
	}
	return nil, fmt.Errorf("runtime: unknown TE %q", name)
}

// se looks an SE up by name.
func (r *Runtime) se(name string) (*seState, error) {
	for _, ss := range r.ses {
		if ss.def.Name == name {
			return ss, nil
		}
	}
	return nil, fmt.Errorf("runtime: unknown SE %q", name)
}

// Cluster exposes the underlying simulated cluster.
func (r *Runtime) Cluster() *cluster.Cluster { return r.cl }

// Backup exposes the checkpoint store (nil when fault tolerance is off).
func (r *Runtime) Backup() *checkpoint.Backup { return r.bk }

// Stop terminates all workers and loops. It is idempotent.
func (r *Runtime) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		if r.net != nil {
			r.net.close()
		}
	})
	r.wg.Wait()
}
