package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/wire"
)

// WorkerEndpoint is one worker process reached over two transports. Data
// carries the ordered stream of injections and calls; Control carries
// heartbeats, snapshots and queries. The split matters for failure
// detection: a worker exerting admission backpressure blocks the data link
// for as long as ingress credit is revoked, and heartbeats queued behind
// that block would time a healthy worker out.
type WorkerEndpoint struct {
	// Addr is the address peer workers dial to deliver cross-worker edge
	// traffic (the worker's own listen address). It may stay empty for
	// single-worker deployments and edge-free graphs, where no worker ever
	// dials another.
	Addr    string
	Data    cluster.Transport
	Control cluster.Transport
}

func (ep WorkerEndpoint) close() {
	if ep.Data != nil {
		ep.Data.Close()
	}
	if ep.Control != nil {
		ep.Control.Close()
	}
}

// CoordOptions configures a distributed deployment.
type CoordOptions struct {
	// Partitions sets each SE's global partition count (default: one per
	// worker).
	Partitions map[string]int
	// Worker runtime tuning, passed through in the Deploy message.
	QueueLen    int
	OverflowLen int
	BatchSize   int
	// CallTimeout bounds how long a worker waits for a dataflow reply on
	// behalf of Call (default 10s).
	CallTimeout time.Duration
	// HeartbeatInterval paces liveness probes on the control link (default
	// 1s); HeartbeatMisses consecutive failed probes mark the worker dead
	// (default 3).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// SnapChunkBytes bounds the encoded payload of one streamed snapshot
	// part (default 1 MiB). Explicit values must lie in
	// [512, cluster.MaxFrameSize/4]: big enough to amortise the part
	// header, small enough that envelope + header + one oversized entry
	// still fit a frame.
	SnapChunkBytes int
	// OnFailure is called (on its own goroutine) when a worker is marked
	// dead, once per death.
	OnFailure func(worker int)
}

func (o *CoordOptions) defaults() {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	if o.SnapChunkBytes == 0 {
		o.SnapChunkBytes = checkpoint.ChunkBytes
	}
}

// coordWorker is the coordinator's view of one worker.
type coordWorker struct {
	// sendMu orders this worker's data link. A sender holds it from drawing
	// an item's seq through the round trip and the replay-log append, so
	// seqs reach the worker in increasing order. Senders take it under the
	// read side of the coordinator's injMu.
	//
	//sdg:lockorder coordsend 67
	sendMu sync.Mutex
	// encBuf is the reused data-plane encode buffer. Safe to refill as soon
	// as Transport.Call returns: the TCP client has written the frame out
	// by then, and the Local transport copies the request before handing
	// it to the worker. Guarded by sendMu.
	encBuf []byte
	// logs holds one replay log per entry task: every item sent to this
	// worker (or queued while it is dead) until a checkpoint of it covers
	// the item. Senders append under sendMu; trims and recovery replay hold
	// injMu's write side.
	logs map[string]*dataflow.OutputBuffer

	//sdg:lockorder coordworker 70
	mu    sync.Mutex // guards ep and hbStop swaps across recoveries
	ep    WorkerEndpoint
	alive atomic.Bool
	// snap is the checkpoint chain pulled from this worker, retained as
	// compressed part records (nil until its first checkpoint); guarded by
	// the write side of the coordinator's injMu, which every snapshot and
	// recovery flow holds.
	snap   *retainedSnap
	hbStop chan struct{}
}

func (cw *coordWorker) endpoint() WorkerEndpoint {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.ep
}

// Coordinator drives a distributed SDG deployment: it owns the graph, the
// external seq space, the per-worker replay logs and the checkpoint
// snapshots, and routes injections to worker processes over the wire
// protocol. Workers execute; the coordinator remembers.
//
// Seq order is kept per worker (coordWorker.sendMu): released between draw
// and send, a later seq could overtake an earlier one onto the same
// worker, and the per-origin dedup watermark of the instance it lands on
// would drop the overtaken item forever. Watermarks are kept per instance
// and every instance lives on one worker, so sends to different workers
// need no common order and run in parallel. Checkpoints and recoveries
// hold the write side of the injection mutex, so snapshot watermarks and
// log trims cannot shear, and replayed items can never interleave with
// (and be overtaken by) fresh higher-seq injections.
type Coordinator struct {
	graphName string
	g         *core.Graph
	opts      CoordOptions
	workers   []*coordWorker

	entry map[string]bool // entry TE names
	keyed map[string]bool // entry TEs routed by key (partitioned access)

	// Sharded placement: the per-worker TE/SE shard tables, the global
	// instance total per entry task (routing), and the peer address list
	// workers dial each other on. One worker holds every instance.
	teShards   []map[string]wire.Shard
	seShards   []map[string]wire.Shard
	entryTotal map[string]int
	addrs      []string

	// injMu excludes whole-deployment operations from sends: senders hold
	// its read side; Checkpoint, RecoverWorker and SnapshotStats its write
	// side.
	//
	//sdg:lockorder coordinject 65
	injMu sync.RWMutex
	// extSeq is the last external seq drawn. Senders draw under the send
	// lock of every worker the item can reach.
	extSeq atomic.Uint64
	// snapStreams numbers snapshot pull and restore push streams; never 0,
	// so a worker can tell "no stream" from any real one. Guarded by the
	// write side of injMu.
	snapStreams uint64
	// stats tracks the streaming-transfer counters (see SnapStats). Guarded
	// by the write side of injMu.
	stats SnapStats

	// compact wakes compactChains; one slot, so Checkpoint never waits.
	compact chan struct{}

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// ErrUnsupportedLayout rejects a multi-worker layout in which an
// all-to-one gather collects from instances on more than one worker.
// Request ids and reply tables are worker-local, so such partials would
// time out or answer a stranger's call.
var ErrUnsupportedLayout = errors.New("coordinator: unsupported layout")

// NewCoordinator validates the graph for distributed execution, deploys it
// to every worker and starts failure detection.
//
// The deployment slices the graph: every SE's global partition set
// (CoordOptions.Partitions, defaulting to one partition per worker) splits
// contiguously across workers, TEs colocate with their SE's slice,
// and dataflow edges whose destination spans workers are cut — each
// worker's runtime delivers the remote share over the peer links named by
// WorkerEndpoint.Addr, with the same routing the in-process path uses over
// the global instance set.
func NewCoordinator(graphName string, eps []WorkerEndpoint, opts CoordOptions) (*Coordinator, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("coordinator: no worker endpoints")
	}
	g, err := BuildGraph(graphName)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.SnapChunkBytes != 0 &&
		(opts.SnapChunkBytes < 512 || opts.SnapChunkBytes > cluster.MaxFrameSize/4) {
		return nil, fmt.Errorf("coordinator: SnapChunkBytes %d out of range [512, %d]",
			opts.SnapChunkBytes, cluster.MaxFrameSize/4)
	}
	opts.defaults()
	c := &Coordinator{
		graphName: graphName,
		g:         g,
		opts:      opts,
		entry:     map[string]bool{},
		keyed:     map[string]bool{},
		compact:   make(chan struct{}, 1),
		stopped:   make(chan struct{}),
	}
	for _, te := range g.TEs {
		if !te.Entry {
			continue
		}
		c.entry[te.Name] = true
		c.keyed[te.Name] = te.Access != nil && te.Access.Mode == core.AccessByKey
	}
	c.computeLayout(eps)
	// With more than one worker, the split puts a TE with more than one
	// global instance on more than one worker.
	for _, e := range g.Edges {
		src := g.TEs[e.From].Name
		if n := c.teShards[0][src].Total; e.Dispatch == core.DispatchAllToOne && n > 1 && len(eps) > 1 {
			return nil, fmt.Errorf("%w: gather %q collects from %d instances of %q across workers",
				ErrUnsupportedLayout, g.TEs[e.To].Name, n, src)
		}
	}
	for i, ep := range eps {
		cw := &coordWorker{ep: ep, logs: map[string]*dataflow.OutputBuffer{}}
		for task := range c.entry {
			cw.logs[task] = &dataflow.OutputBuffer{}
		}
		cw.alive.Store(true)
		c.workers = append(c.workers, cw)
		if err := c.deployTo(i, cw, false); err != nil {
			// Unwind: close everything already connected.
			for _, w := range c.workers {
				w.endpoint().close()
			}
			return nil, fmt.Errorf("coordinator: deploy to worker %d: %w", i, err)
		}
	}
	for i, cw := range c.workers {
		c.startHeartbeat(i, cw)
	}
	c.wg.Add(1)
	go c.compactChains()
	return c, nil
}

// computeLayout fixes the global placement of the deployment:
// every SE gets a global partition count (Partitions[name], defaulting to
// one partition per worker — the layout edge-free deployments always had),
// split contiguously across workers; a TE colocates with its SE's slice,
// and a stateless TE runs as a single global instance on worker 0. Entry
// routing and cross-worker edge routing both derive from this one table,
// which is what keeps a cut edge semantically identical to a local one.
func (c *Coordinator) computeLayout(eps []WorkerEndpoint) {
	W := len(eps)
	c.addrs = make([]string, W)
	for i, ep := range eps {
		c.addrs[i] = ep.Addr
	}
	c.teShards = make([]map[string]wire.Shard, W)
	c.seShards = make([]map[string]wire.Shard, W)
	for w := 0; w < W; w++ {
		c.teShards[w] = make(map[string]wire.Shard, len(c.g.TEs))
		c.seShards[w] = make(map[string]wire.Shard, len(c.g.SEs))
	}
	for _, se := range c.g.SEs {
		total := W
		if p, ok := c.opts.Partitions[se.Name]; ok && p > 0 {
			total = p
		}
		for w := 0; w < W; w++ {
			first, cnt := shardSplit(total, w, W)
			c.seShards[w][se.Name] = wire.Shard{First: first, Count: cnt, Total: total}
		}
	}
	c.entryTotal = make(map[string]int)
	for _, te := range c.g.TEs {
		for w := 0; w < W; w++ {
			var sh wire.Shard
			if te.Access != nil {
				sh = c.seShards[w][c.g.SEs[te.Access.SE].Name]
			} else {
				first, cnt := shardSplit(1, w, W)
				sh = wire.Shard{First: first, Count: cnt, Total: 1}
			}
			c.teShards[w][te.Name] = sh
		}
		if te.Entry {
			c.entryTotal[te.Name] = c.teShards[0][te.Name].Total
		}
	}
}

// deployTo sends the Deploy message over the worker's data link.
func (c *Coordinator) deployTo(w int, cw *coordWorker, awaitRestore bool) error {
	d := wire.Deploy{
		Graph:       c.graphName,
		QueueLen:    c.opts.QueueLen,
		OverflowLen: c.opts.OverflowLen,
		BatchSize:   c.opts.BatchSize,

		Worker:       w,
		Workers:      len(c.addrs),
		TEShards:     c.teShards[w],
		SEShards:     c.seShards[w],
		Peers:        c.addrs,
		AwaitRestore: awaitRestore,
	}
	frame, err := wire.Encode(wire.MsgDeploy, d)
	if err != nil {
		return err
	}
	var ack wire.DeployAck
	return call(cw.endpoint().Data, frame, wire.MsgDeployAck, &ack)
}

// call sends one encoded request over a transport and decodes the expected
// reply type.
func call(tr cluster.Transport, frame []byte, want byte, out any) error {
	resp, err := tr.Call(frame)
	if err != nil {
		return err
	}
	return wire.Expect(resp, want, out)
}

// route picks the worker for an item in two steps through the same global
// instance space workers use internally: the key (or seq rotation) names a
// global entry instance, and the shard table names the worker owning it.
func (c *Coordinator) route(task string, it core.Item) int {
	total := c.entryTotal[task]
	if total <= 0 {
		total = 1
	}
	g := int(it.Seq % uint64(total))
	if c.keyed[task] {
		g = statePartition(it.Key, total)
	}
	return shardOwner(total, len(c.workers), g)
}

// Inject delivers one fire-and-forget item.
func (c *Coordinator) Inject(task string, key uint64, value any) error {
	return c.InjectBatch(task, []InjectItem{{Key: key, Value: value}})
}

// lockTargets takes, in index order, the send lock of every worker an
// injection of items into task can reach, and reports which it took: each
// item's key owner for a keyed task, and every worker hosting an instance
// of an unkeyed task, whose items route by the seqs they have yet to draw.
func (c *Coordinator) lockTargets(task string, items []InjectItem) []bool {
	held := make([]bool, len(c.workers))
	if c.keyed[task] {
		for _, in := range items {
			held[c.route(task, core.Item{Key: in.Key})] = true
		}
	} else {
		for w := range held {
			held[w] = c.teShards[w][task].Count > 0
		}
	}
	for w, h := range held {
		if h {
			c.workers[w].sendMu.Lock()
		}
	}
	return held
}

// InjectBatch assigns seqs, logs and transmits a batch of items. Items
// routed to a dead worker are logged and delivered by the recovery replay —
// the distributed mirror of in-process injection parking items for a failed
// partition — so accepted items are never lost. A transport failure
// mid-send marks the worker dead and leaves the sub-batch queued the same
// way; only an application-level rejection (admission shed, unknown task)
// returns an error, and those items are the caller's to retry.
//
// The batch draws its seqs holding the send lock of every worker it can
// reach, and releases each one once that worker's sub-batch is logged.
func (c *Coordinator) InjectBatch(task string, items []InjectItem) error {
	if len(items) == 0 {
		return nil
	}
	if !c.entry[task] {
		return fmt.Errorf("%w: %q", ErrNotEntry, task)
	}
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	held := c.lockTargets(task, items)
	// Assign seqs and group per worker, preserving seq order within each
	// group.
	subs := make([][]core.Item, len(c.workers))
	for _, in := range items {
		it := core.Item{Origin: externalOrigin, Seq: c.extSeq.Add(1), Key: in.Key, Value: in.Value}
		w := c.route(task, it)
		subs[w] = append(subs[w], it)
	}
	var rejected error
	for w, sub := range subs {
		if !held[w] {
			continue
		}
		if len(sub) > 0 {
			if err := c.sendInject(w, task, sub); err != nil {
				rejected = err
			}
		}
		c.workers[w].sendMu.Unlock()
	}
	return rejected
}

// sendInject transmits and logs one worker's share of an InjectBatch under
// that worker's send lock. An error means the items never entered.
func (c *Coordinator) sendInject(w int, task string, sub []core.Item) error {
	cw := c.workers[w]
	if !cw.alive.Load() {
		cw.logs[task].AppendBatch(sub) // queued; recovery replays
		return nil
	}
	frame, err := wire.EncodeAppend(cw.encBuf[:0], wire.MsgInject, wire.Inject{Task: task, Items: sub})
	if err != nil {
		return err
	}
	cw.encBuf = frame
	var ack wire.InjectAck
	err = call(cw.endpoint().Data, frame, wire.MsgInjectAck, &ack)
	switch {
	case err == nil:
		cw.logs[task].AppendBatch(sub)
	case errors.Is(err, cluster.ErrRemote):
		// The worker is healthy and said no (shed, unknown task): the
		// items never entered and must not be replayed later.
		return err
	default:
		// Transport failure: delivery is ambiguous, so log the items
		// anyway — if the worker did enqueue them, the replay duplicates
		// are filtered by seq; if not, the replay is the delivery.
		cw.logs[task].AppendBatch(sub)
		c.markDead(w)
	}
	return nil
}

// Call injects a request item to its worker and waits for the dataflow's
// reply. Answered, timed-out and transport-ambiguous calls are logged for
// replay, since the worker may have applied the item; a call the worker
// refused (admission shed, unknown task) is not. A worker-side timeout
// returns ErrTimeout.
//
// The call holds its worker's send lock from drawing the seq through the
// log append; an unkeyed call holds every worker its task can reach until
// its seq picks one.
func (c *Coordinator) Call(task string, key uint64, value any, timeout time.Duration) (any, error) {
	if !c.entry[task] {
		return nil, fmt.Errorf("%w: %q", ErrNotEntry, task)
	}
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	held := c.lockTargets(task, []InjectItem{{Key: key}})
	it := core.Item{Origin: externalOrigin, Seq: c.extSeq.Add(1), Key: key, Value: value}
	w := c.route(task, it)
	for o, h := range held {
		if h && o != w {
			c.workers[o].sendMu.Unlock()
		}
	}
	cw := c.workers[w]
	defer cw.sendMu.Unlock()
	if !cw.alive.Load() {
		return nil, fmt.Errorf("coordinator: worker %d is down", w)
	}
	if timeout <= 0 {
		timeout = c.opts.CallTimeout
	}
	frame, err := wire.EncodeAppend(cw.encBuf[:0], wire.MsgCall, wire.Call{Task: task, Item: it, TimeoutMs: timeout.Milliseconds()})
	if err != nil {
		return nil, err
	}
	cw.encBuf = frame
	resp, err := cw.endpoint().Data.Call(frame)
	if err != nil {
		if errors.Is(err, cluster.ErrRemote) {
			return nil, err
		}
		// Ambiguous transport failure: the worker may have applied the
		// item, so it must survive into the replay log before the caller
		// hears anything.
		cw.logs[task].AppendBatch([]core.Item{it})
		c.markDead(w)
		return nil, err
	}
	t, payload, err := wire.Decode(resp)
	if err != nil {
		return nil, err
	}
	var reply wire.CallReply
	switch t {
	case wire.MsgCallReply:
		err = wire.Unmarshal(payload, &reply)
	case wire.MsgCallTimeout:
		err = ErrTimeout
	default:
		return nil, fmt.Errorf("%w: got %s, want %s", wire.ErrUnexpectedType, wire.MsgName(t), wire.MsgName(wire.MsgCallReply))
	}
	cw.logs[task].AppendBatch([]core.Item{it})
	return reply.Value, err
}

// startHeartbeat probes one worker on its control link until it dies or
// the coordinator stops. The stop channel is per incarnation: recovery
// starts a fresh loop against the replacement endpoint.
func (c *Coordinator) startHeartbeat(w int, cw *coordWorker) {
	stop := make(chan struct{})
	cw.mu.Lock()
	cw.hbStop = stop
	cw.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.opts.HeartbeatInterval)
		defer ticker.Stop()
		misses := 0
		var seq uint64
		// The probe frame is encoded once: the flat layout gives the seq a
		// fixed 8-byte slot after the envelope header, patched in place
		// every beat (0 allocs/probe). The transport is done with the frame
		// when Call returns, so the patch never races a send.
		frame, err := wire.Encode(wire.MsgHeartbeat, wire.Heartbeat{})
		if err != nil {
			return
		}
		for {
			select {
			case <-c.stopped:
				return
			case <-stop:
				return
			case <-ticker.C:
			}
			seq++
			binary.LittleEndian.PutUint64(frame[2:], seq)
			var ack wire.HeartbeatAck
			if err := call(cw.endpoint().Control, frame, wire.MsgHeartbeatAck, &ack); err != nil || ack.Seq != seq {
				misses++
				if misses >= c.opts.HeartbeatMisses {
					c.markDead(w)
					return
				}
				continue
			}
			misses = 0
		}
	}()
}

// markDead transitions a worker to dead exactly once: closes its transports
// (failing in-flight and future sends fast, which is also how a hung — not
// crashed — worker stops wedging the data link), stops its heartbeat loop
// and fires the failure callback.
func (c *Coordinator) markDead(w int) {
	cw := c.workers[w]
	if !cw.alive.Swap(false) {
		return
	}
	cw.mu.Lock()
	ep := cw.ep
	stop := cw.hbStop
	cw.mu.Unlock()
	ep.close()
	if stop != nil {
		close(stop)
	}
	if c.opts.OnFailure != nil {
		go c.opts.OnFailure(w)
	}
}

// WorkerAlive reports the failure detector's view of a worker.
func (c *Coordinator) WorkerAlive(w int) bool {
	return w >= 0 && w < len(c.workers) && c.workers[w].alive.Load()
}

// Workers reports the deployment width.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Checkpoint pulls a consistent snapshot from every live worker, folds it
// into that worker's retained chain, and trims the replay logs the snapshot
// covers (§5: upstream buffers drop items older than all downstream
// checkpoints). Held under the write side of the injection mutex, so no
// send is in flight and the snapshot's watermarks and the log contents
// cannot shear. Snapshots stream in chunk
// by chunk (pullSnapshot), so no worker's whole state ever crosses as one
// frame or sits uncompressed in coordinator memory, and after a worker's
// first checkpoint each epoch carries only the keys that changed.
//
// Workers are pulled concurrently, one goroutine per control link: each
// worker serialises while the coordinator compresses another's previous
// record. The pulls share nothing; their results are folded in worker
// order after the join, so the first error reported is the lowest
// worker's.
func (c *Coordinator) Checkpoint() error {
	c.injMu.Lock()
	defer c.injMu.Unlock()
	type pull struct {
		pe  *pulledEpoch
		err error
	}
	pulls := make([]*pull, len(c.workers))
	var wg sync.WaitGroup
	for w, cw := range c.workers {
		if !cw.alive.Load() {
			continue
		}
		c.snapStreams++
		stream, tr := c.snapStreams, cw.endpoint().Control
		var have uint64
		if cw.snap != nil {
			have = cw.snap.epoch
		}
		p := &pull{}
		pulls[w] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.pe, p.err = c.pullSnapshot(tr, stream, have)
		}()
	}
	wg.Wait()

	var firstErr error
	c.stats.Workers, c.stats.Chunks = 0, 0
	c.stats.RawBytes, c.stats.StoredBytes = 0, 0
	fresh := make(map[int]*retainedSnap)
	for w, p := range pulls {
		if p == nil {
			continue
		}
		cw := c.workers[w]
		if p.err == nil {
			rs := cw.snap
			if rs == nil {
				rs = &retainedSnap{ses: map[seKey]*seChain{}}
			}
			if p.err = rs.fold(p.pe); p.err == nil {
				cw.snap = rs
			}
		}
		if p.err != nil {
			if !errors.Is(p.err, cluster.ErrRemote) {
				c.markDead(w)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("coordinator: snapshot worker %d: %w", w, p.err)
			}
			continue
		}
		fresh[w] = cw.snap
		c.trimLogs(w, cw.snap.tes)
		c.stats.Workers++
		c.stats.Chunks += p.pe.chunks
		c.stats.RawBytes += p.pe.rawBytes
		c.stats.StoredBytes += p.pe.storedBytes
		c.notePeak(p.pe.peakFrame)
	}
	c.trimCovered(fresh)
	select {
	case c.compact <- struct{}{}:
	default:
	}
	return firstErr
}

// trimCovered broadcasts what this checkpoint round proved durable: the
// per-(edge, destination instance) trim points for the cross-worker edge
// send logs; one worker has none. Only instances snapshotted this round
// feed them — a worker that missed the round keeps its older restore
// point, and items it may still need stay logged at the senders. Out-edge
// logs inside a worker need no message: the cut itself trims them.
func (c *Coordinator) trimCovered(fresh map[int]*retainedSnap) {
	var trims []wire.EdgeTrimEntry
	if len(c.workers) > 1 && len(fresh) > 0 {
		for gi, e := range c.g.Edges {
			dst := c.g.TEs[e.To].Name
			for w, rs := range fresh {
				sh := c.teShards[w][dst]
				for _, t := range rs.tes {
					if t.Name != dst || len(t.Watermarks) == 0 {
						continue
					}
					trims = append(trims, wire.EdgeTrimEntry{Edge: gi, Inst: sh.First + t.Index, Watermarks: t.Watermarks})
				}
			}
		}
	}
	if len(trims) == 0 {
		return
	}
	frame, err := wire.Encode(wire.MsgEdgeTrim, wire.EdgeTrim{Trims: trims})
	if err != nil {
		return
	}
	for _, cw := range c.workers {
		if !cw.alive.Load() {
			continue
		}
		var ack wire.EdgeTrimAck
		// Best-effort: a failed trim only delays log truncation until the
		// next checkpoint; the failure detector owns marking workers dead.
		_ = call(cw.endpoint().Control, frame, wire.MsgEdgeTrimAck, &ack)
	}
}

// minWatermarks folds the PartTE parts of task te into the per-origin
// minimum watermark — the seqs every one of those instances has snapshotted
// past. An origin missing from any instance's map is dropped: that
// instance may still need those items replayed. The coordinator's log trim
// and the in-process upstream trim (minCheckpointWM) both fold this way.
func minWatermarks(tes []wire.SnapPart, te string) (floor map[uint64]uint64) {
	for _, t := range tes {
		if t.Name != te {
			continue
		}
		if floor == nil {
			floor = make(map[uint64]uint64, len(t.Watermarks))
			maps.Copy(floor, t.Watermarks)
			continue
		}
		for o, s := range floor {
			if ts, ok := t.Watermarks[o]; !ok {
				delete(floor, o)
			} else if ts < s {
				floor[o] = ts
			}
		}
	}
	return floor
}

// trimLogs drops replay-log items the worker's snapshot durably covers:
// for each entry task, everything below the minimum watermark across the
// worker's instances of that task.
func (c *Coordinator) trimLogs(w int, tes []wire.SnapPart) {
	for task, log := range c.workers[w].logs {
		if min := minWatermarks(tes, task); len(min) > 0 {
			log.Trim(min)
		}
	}
}

// PendingReplay reports the replay-log depth for one task and worker —
// the items a recovery of that worker would re-deliver.
func (c *Coordinator) PendingReplay(task string, w int) int {
	if !c.entry[task] || w < 0 || w >= len(c.workers) {
		return 0
	}
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	cw := c.workers[w]
	cw.sendMu.Lock()
	defer cw.sendMu.Unlock()
	return cw.logs[task].Len()
}

// replayChunk bounds the items per replay Inject message so a long log
// never exceeds the frame size bound.
const replayChunk = 256

// RecoverWorker brings a dead worker slot back on a replacement endpoint:
// deploy the graph, restore the last pulled snapshot, replay the logged
// items its watermarks do not cover, and resume routing and failure
// detection. The write side of the injection mutex is held throughout, so
// no fresh injection can slip ahead of the replay and trip the dedup
// watermark over items still in flight.
func (c *Coordinator) RecoverWorker(w int, ep WorkerEndpoint) error {
	if w < 0 || w >= len(c.workers) {
		return fmt.Errorf("coordinator: no worker %d", w)
	}
	c.injMu.Lock()
	defer c.injMu.Unlock()
	cw := c.workers[w]
	if cw.alive.Load() {
		return fmt.Errorf("coordinator: worker %d is still alive", w)
	}
	cw.mu.Lock()
	cw.ep = ep
	cw.mu.Unlock()
	// The replacement listens somewhere new; its own deploy and every peer
	// notification below must carry the current address.
	c.addrs[w] = ep.Addr
	fail := func(err error) error {
		ep.close()
		return err
	}
	// A worker with a restore point deploys sealed (AwaitRestore): peers may
	// start re-sending edge items the moment they learn the new address, and
	// a pre-restore delivery would be double-counted after the import wipes
	// the dedup state.
	if err := c.deployTo(w, cw, cw.snap != nil); err != nil {
		return fail(fmt.Errorf("coordinator: redeploy worker %d: %w", w, err))
	}
	if cw.snap != nil {
		if err := c.pushSnapshot(cw.snap, ep); err != nil {
			return fail(fmt.Errorf("coordinator: restore worker %d: %w", w, err))
		}
	}
	for task, log := range cw.logs {
		items := log.Replay()
		for start := 0; start < len(items); start += replayChunk {
			end := start + replayChunk
			if end > len(items) {
				end = len(items)
			}
			frame, err := wire.Encode(wire.MsgInject, wire.Inject{Task: task, Items: items[start:end]})
			if err != nil {
				return fail(err)
			}
			var ack wire.InjectAck
			if err := call(ep.Data, frame, wire.MsgInjectAck, &ack); err != nil {
				return fail(fmt.Errorf("coordinator: replay %q to worker %d: %w", task, w, err))
			}
		}
	}
	// Tell the surviving workers where the replacement lives: each one
	// rebuilds its send queue for w from its edge logs and re-delivers
	// everything the last checkpoint did not cover (the receiver's restored
	// dedup watermarks drop the rest). Best-effort per peer — a peer that
	// fails here is the failure detector's problem, not this recovery's.
	if frame, err := wire.Encode(wire.MsgPeers, wire.Peers{Worker: w, Addr: ep.Addr}); err == nil {
		for pw, pcw := range c.workers {
			if pw == w || !pcw.alive.Load() {
				continue
			}
			var ack wire.PeersAck
			_ = call(pcw.endpoint().Control, frame, wire.MsgPeersAck, &ack)
		}
	}
	cw.alive.Store(true)
	c.startHeartbeat(w, cw)
	return nil
}

// queryLive runs one request against every live worker's control link.
func (c *Coordinator) queryLive(frame []byte, want byte, each func(w int, payload wire.Payload) error) error {
	for w, cw := range c.workers {
		if !cw.alive.Load() {
			continue
		}
		resp, err := cw.endpoint().Control.Call(frame)
		if err != nil {
			return fmt.Errorf("coordinator: worker %d: %w", w, err)
		}
		t, payload, err := wire.Decode(resp)
		if err != nil {
			return err
		}
		if t != want {
			return fmt.Errorf("%w: got %s, want %s", wire.ErrUnexpectedType, wire.MsgName(t), wire.MsgName(want))
		}
		if err := each(w, payload); err != nil {
			return err
		}
	}
	return nil
}

// DumpKV returns the union of a dictionary SE's contents across live
// workers. Keys are disjoint across workers under keyed routing, so the
// union is exactly the global store.
func (c *Coordinator) DumpKV(seName string) (map[uint64][]byte, error) {
	frame, err := wire.Encode(wire.MsgDumpReq, wire.DumpReq{SE: seName})
	if err != nil {
		return nil, err
	}
	out := make(map[uint64][]byte)
	err = c.queryLive(frame, wire.MsgDump, func(_ int, payload wire.Payload) error {
		var dump wire.Dump
		if err := wire.Unmarshal(payload, &dump); err != nil {
			return err
		}
		for _, e := range dump.Entries {
			out[e.Key] = e.Value
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FoldedWatermarks folds (max per origin) one task's dedup watermarks
// across all live workers — the distributed counterpart of
// Runtime.FoldedWatermarks.
func (c *Coordinator) FoldedWatermarks(task string) (map[uint64]uint64, error) {
	frame, err := wire.Encode(wire.MsgStatsReq, wire.StatsReq{})
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]uint64)
	err = c.queryLive(frame, wire.MsgStats, func(_ int, payload wire.Payload) error {
		var stats wire.Stats
		if err := wire.Unmarshal(payload, &stats); err != nil {
			return err
		}
		for o, s := range stats.Watermarks[task] {
			if cur, ok := out[o]; !ok || s > cur {
				out[o] = s
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Processed sums one task's processed counters across live workers.
func (c *Coordinator) Processed(task string) (int64, error) {
	frame, err := wire.Encode(wire.MsgStatsReq, wire.StatsReq{})
	if err != nil {
		return 0, err
	}
	var total int64
	err = c.queryLive(frame, wire.MsgStats, func(_ int, payload wire.Payload) error {
		var stats wire.Stats
		if err := wire.Unmarshal(payload, &stats); err != nil {
			return err
		}
		total += stats.Processed[task]
		return nil
	})
	return total, err
}

// Drain blocks until the whole deployment quiesces: every live worker
// reports empty queues and no unacked cross-worker edge frames, twice in a
// row with unchanged processed totals. One quiesced round is not enough
// once workers feed each other over edges: worker A can answer quiet and
// only then receive items B emitted after A's answer. A repeated
// all-quiet round with stable progress counters proves no item moved
// between the two observations.
func (c *Coordinator) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var prev []int64
	quietOnce := false
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		frame, err := wire.Encode(wire.MsgDrainReq, wire.DrainReq{TimeoutMs: remaining.Milliseconds()})
		if err != nil {
			return false
		}
		all := true
		var cur []int64
		err = c.queryLive(frame, wire.MsgDrainAck, func(w int, payload wire.Payload) error {
			var ack wire.DrainAck
			if err := wire.Unmarshal(payload, &ack); err != nil {
				return err
			}
			all = all && ack.Quiesced
			// Pairing each total with its worker id keeps a membership
			// change between rounds from matching by coincidence.
			cur = append(cur, int64(w), ack.Processed)
			return nil
		})
		if err != nil {
			return false
		}
		if all && quietOnce && int64sEqual(prev, cur) {
			return true
		}
		quietOnce = all
		prev = cur
		if !all {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Close stops failure detection, asks live workers to shut down
// (best-effort) and closes every transport. Idempotent.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stopped)
		c.wg.Wait()
		frame, err := wire.Encode(wire.MsgStop, wire.Stop{})
		for _, cw := range c.workers {
			if cw.alive.Load() && err == nil {
				var ack wire.StopAck
				_ = call(cw.endpoint().Data, frame, wire.MsgStopAck, &ack)
			}
			cw.endpoint().close()
		}
	})
}
