// Package sdg is the public API of the stateful dataflow graph (SDG)
// library, a Go implementation of "Making State Explicit for Imperative Big
// Data Processing" (Fernandez et al., USENIX ATC 2014).
//
// An SDG is a pipelined dataflow of task elements (TEs) over explicit
// mutable state elements (SEs). State is distributed either partitioned
// (disjoint splits by access key) or partial (independent replicas merged
// on demand). Deployments checkpoint state asynchronously using dirty-state
// overlays and recover failed nodes by m-to-n parallel restore plus replay
// of logged dataflows.
//
// Checkpointing takes one parameter, Options.Interval. Every deployment
// provisions two backup nodes, the backup parallelism m: a checkpoint
// streams out in chunks of at most 1 MiB, several per backup node, spread
// round-robin over them, and a restore splits every chunk n ways by key
// hash. Delta epochs compact by one fixed rule: a fresh base once the
// deltas reach half the base's bytes.
//
// Build a graph with NewGraph, add state and tasks, connect them, then
// Deploy:
//
//	b := sdg.NewGraph("kv")
//	store := b.PartitionedState("store", sdg.StoreKVMap)
//	b.Task("put", putFn, sdg.TaskOptions{Entry: true, ByKeyState: sdg.Ref(store)})
//	sys, err := b.Deploy(sdg.Options{})
package sdg

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/state"
)

// Re-exported dataflow types. Task functions receive a Context for state
// access and emission, and the Item being processed.
type (
	// Context is the execution environment of a task function.
	Context = core.Context
	// Item is one data element flowing through the graph.
	Item = core.Item
	// TaskFunc is a task element's computation.
	TaskFunc = core.TaskFunc
	// Collection is the payload delivered to merge tasks after an
	// all-to-one gather.
	Collection = core.Collection
	// Candlestick is the five-number latency summary used by the paper.
	Candlestick = metrics.Candlestick
)

// Dispatch semantics for dataflow edges (§3.1/§4.2 of the paper).
type Dispatch = core.Dispatch

// Dispatch constants.
const (
	Partitioned = core.DispatchPartitioned
	OneToAny    = core.DispatchOneToAny
	OneToAll    = core.DispatchOneToAll
	AllToOne    = core.DispatchAllToOne
)

// StoreType selects a state element data structure.
type StoreType = state.StoreType

// Store type constants.
const (
	StoreKVMap  = state.TypeKVMap
	StoreMatrix = state.TypeMatrix
	StoreVector = state.TypeVector
)

// Concrete state element types, for use inside task functions via
// Context.Store().
type (
	// KVMap is a dictionary store.
	KVMap = state.KVMap
	// KV is the dictionary interface KVMap satisfies; task functions that
	// assert to it do not depend on the concrete store type.
	KV = state.KV
	// Matrix is an indexed sparse matrix store.
	Matrix = state.Matrix
	// Vector is a dense vector store.
	Vector = state.Vector
)

// CheckpointMode selects the fault-tolerance strategy.
type CheckpointMode = checkpoint.Mode

// Checkpoint modes.
const (
	// FTOff disables checkpointing.
	FTOff = checkpoint.ModeOff
	// FTAsync is the paper's asynchronous dirty-state checkpointing.
	FTAsync = checkpoint.ModeAsync
)

// StateID references a state element in a GraphBuilder.
type StateID int

// TaskID references a task element in a GraphBuilder.
type TaskID int

// GraphBuilder assembles an SDG.
type GraphBuilder struct {
	g *core.Graph
}

// NewGraph starts a new SDG definition.
func NewGraph(name string) *GraphBuilder {
	return &GraphBuilder{g: core.NewGraph(name)}
}

// PartitionedState declares a partitioned SE: its contents split into
// disjoint instances by access key (@Partitioned in the paper).
func (b *GraphBuilder) PartitionedState(name string, t StoreType) StateID {
	return StateID(b.g.AddSE(name, core.KindPartitioned, t, nil))
}

// PartialState declares a partial SE: independent replicas, one per
// instance, reconciled by merge tasks (@Partial in the paper).
func (b *GraphBuilder) PartialState(name string, t StoreType) StateID {
	return StateID(b.g.AddSE(name, core.KindPartial, t, nil))
}

// PartialStateWith declares a partial SE with a custom store constructor
// (e.g. a pre-sized Vector).
func (b *GraphBuilder) PartialStateWith(name string, t StoreType, build func() state.Store) StateID {
	return StateID(b.g.AddSE(name, core.KindPartial, t, build))
}

// TaskOptions configures a task element. At most one of ByKeyState,
// LocalState and GlobalState may be set (a TE accesses at most one SE).
type TaskOptions struct {
	// Entry marks the task as an external entry point.
	Entry bool
	// ByKeyState grants partitioned access: the item key selects the local
	// partition (@Partitioned access).
	ByKeyState *StateID
	// LocalState grants access to the colocated partial replica.
	LocalState *StateID
	// GlobalState grants access to all partial replicas (@Global): the
	// task runs on every replica and results flow to a merge task.
	GlobalState *StateID
}

// Task declares a task element.
func (b *GraphBuilder) Task(name string, fn TaskFunc, opts TaskOptions) TaskID {
	var access *core.Access
	switch {
	case opts.ByKeyState != nil:
		access = &core.Access{SE: int(*opts.ByKeyState), Mode: core.AccessByKey}
	case opts.LocalState != nil:
		access = &core.Access{SE: int(*opts.LocalState), Mode: core.AccessLocal}
	case opts.GlobalState != nil:
		access = &core.Access{SE: int(*opts.GlobalState), Mode: core.AccessGlobal}
	}
	return TaskID(b.g.AddTE(name, fn, access, opts.Entry))
}

// Connect adds a dataflow edge and returns its emit index on the source
// task (the argument for Context.Emit).
func (b *GraphBuilder) Connect(from, to TaskID, d Dispatch) int {
	return b.g.Connect(int(from), int(to), d)
}

// Validate checks the graph against the SDG structural rules without
// deploying it.
func (b *GraphBuilder) Validate() error { return b.g.Validate() }

// Dot renders the graph in Graphviz dot syntax.
func (b *GraphBuilder) Dot() string { return b.g.Dot() }

// Graph exposes the underlying core graph (advanced use).
func (b *GraphBuilder) Graph() *core.Graph { return b.g }

// Options configures a deployment.
type Options struct {
	// Partitions sets initial instance counts per SE name; TEs accessing
	// an SE always match its instance count.
	Partitions map[string]int
	// Checkpointing.
	Mode     CheckpointMode
	Interval time.Duration // checkpoint period (default 10s, as in the paper)
	// DeltaCheckpoints enables incremental epochs for every SE class:
	// after an instance's first full checkpoint, later epochs serialise
	// only the keys changed since the previous epoch (plus tombstones),
	// cutting failure-free checkpoint bytes by the churn ratio. A fresh
	// base is taken once the deltas add up to half the base's bytes.
	DeltaCheckpoints bool
	// QueueLen bounds per-instance queues (default 1024).
	QueueLen int
	// OverflowLen is the flow-control watermark in items (default
	// 4 x QueueLen), applied per task element scaled by its live instance
	// count: a task whose summed parked overflow reaches
	// OverflowLen x instances is backpressured (revoking ingress credits
	// graph-wide until it drains or gains instances), and an entry task
	// whose backlog reaches the same bound stops admitting external items
	// per InjectPolicy. Internal edges never drop or block regardless.
	OverflowLen int
	// InjectPolicy selects ingress admission behaviour under overload:
	// InjectBlock (default) waits for capacity, InjectShed fails fast
	// with ErrOverloaded.
	InjectPolicy InjectPolicy
	// InjectDeadline bounds how long InjectBlock waits before giving up
	// with ErrOverloaded (0 = wait forever).
	InjectDeadline time.Duration
	// BatchSize sets the micro-batch target for the item hot path: workers
	// coalesce up to this many queued items per dispatch and emissions
	// buffer per edge until this many are pending. Batches flush on idle,
	// so a larger size amortises per-item overhead under load without
	// adding latency when the pipeline is drained. Default 1 preserves
	// per-item dispatch exactly.
	BatchSize int
	// DiskBandwidth models checkpoint disk speed in bytes/s (0 = infinite).
	DiskBandwidth int64
	// WireCheck round-trips every delivered payload through the wire codec,
	// verifying the location-independence restriction of the paper (§4.1):
	// a payload that could not cross a real process boundary fails loudly
	// instead of silently sharing memory. Recommended while developing a
	// graph destined for distributed deployment.
	WireCheck bool
}

// System is a deployed SDG.
type System struct {
	rt *runtime.Runtime
}

// Deploy validates, allocates and starts the graph.
func (b *GraphBuilder) Deploy(opts Options) (*System, error) {
	cl := cluster.New(0, cluster.Config{
		DiskWriteBW: opts.DiskBandwidth,
		DiskReadBW:  opts.DiskBandwidth,
	})
	rt, err := runtime.Deploy(b.g, runtime.Options{
		Cluster:          cl,
		QueueLen:         opts.QueueLen,
		OverflowLen:      opts.OverflowLen,
		InjectPolicy:     opts.InjectPolicy,
		InjectDeadline:   opts.InjectDeadline,
		BatchSize:        opts.BatchSize,
		Partitions:       opts.Partitions,
		Mode:             opts.Mode,
		Interval:         opts.Interval,
		DeltaCheckpoints: opts.DeltaCheckpoints,
		WireCheck:        opts.WireCheck,
	})
	if err != nil {
		return nil, err
	}
	return &System{rt: rt}, nil
}

// InjectPolicy selects ingress admission behaviour under overload.
type InjectPolicy = runtime.InjectPolicy

// Admission policies.
const (
	// InjectBlock waits for capacity (bounded by Options.InjectDeadline).
	InjectBlock = runtime.InjectBlock
	// InjectShed fails fast with ErrOverloaded instead of waiting.
	InjectShed = runtime.InjectShed
)

// ErrOverloaded is returned by Inject/InjectBatch/Call when admission
// control rejects the offered items (shed, deadline exceeded, or the target
// entry instance is down).
var ErrOverloaded = runtime.ErrOverloaded

// InjectItem is one externally offered item for InjectBatch.
type InjectItem = runtime.InjectItem

// Inject delivers a fire-and-forget item to an entry task.
func (s *System) Inject(task string, key uint64, value any) error {
	return s.rt.Inject(task, key, value)
}

// InjectBatch delivers a batch of fire-and-forget items to an entry task
// with one admission decision, one source-log append and one enqueue per
// destination instance. Admission is all-or-nothing per batch.
func (s *System) InjectBatch(task string, items []InjectItem) error {
	return s.rt.InjectBatch(task, items)
}

// Call injects a request and waits for a task to Reply, recording latency.
func (s *System) Call(task string, key uint64, value any, timeout time.Duration) (any, error) {
	return s.rt.Call(task, key, value, timeout)
}

// Drain blocks until all queues are empty or the timeout elapses.
func (s *System) Drain(timeout time.Duration) bool { return s.rt.Drain(timeout) }

// Checkpoint takes a manual checkpoint of one SE instance.
func (s *System) Checkpoint(seName string, instance int) error {
	_, err := s.rt.CheckpointNow(seName, instance)
	return err
}

// KillNode injects a node failure.
func (s *System) KillNode(node int) { s.rt.KillNode(node) }

// Recover restores the failed instance of an SE onto n fresh nodes.
func (s *System) Recover(seName string, n int) error {
	_, err := s.rt.Recover(seName, n)
	return err
}

// ScaleUp adds an instance to a task (and to its SE, following the state
// kind's semantics). Growing partitioned state runs ScaleDown's protocol:
// ingress is fenced while the graph drains and the state repartitions onto
// one more instance. It fails while an instance of a task sharing the
// state is dead (recover first), and with ErrNotQuiesced when the graph
// cannot drain within 30s.
func (s *System) ScaleUp(task string) error { return s.rt.ScaleUp(task) }

// ScaleDown retires an instance of a task, draining it behind an ingress
// fence and repartitioning its partitioned state onto the surviving
// instances. Partial-state tasks are refused (replicas reconcile only
// through merge computation); it also fails with ErrNotQuiesced when the
// graph cannot drain within 30s.
func (s *System) ScaleDown(task string) error { return s.rt.ScaleDown(task) }

// ScalePolicy tunes the auto-scaler: high/low water marks, cooldown,
// MinInstances/MaxInstances bounds and the shrink observation window.
type ScalePolicy = runtime.ScalePolicy

// AutoScale starts the reactive bottleneck/straggler controller with
// default policy (grow on sustained parked depth, shrink idle tasks back
// to one instance).
func (s *System) AutoScale(interval time.Duration) {
	s.rt.StartAutoScale(interval, runtime.ScalePolicy{})
}

// AutoScaleWithPolicy starts the controller with an explicit policy.
func (s *System) AutoScaleWithPolicy(interval time.Duration, p ScalePolicy) {
	s.rt.StartAutoScale(interval, p)
}

// ErrNotQuiesced is returned by ScaleUp and ScaleDown when the graph's
// queues do not drain within the reshape timeout.
var ErrNotQuiesced = runtime.ErrNotQuiesced

// Stats snapshots the live topology and counters.
func (s *System) Stats() runtime.Stats { return s.rt.Stats() }

// CallLatency exposes the request latency histogram.
func (s *System) CallLatency() *metrics.Histogram { return s.rt.CallLatency }

// Runtime exposes the underlying runtime (advanced use).
func (s *System) Runtime() *runtime.Runtime { return s.rt }

// Stop terminates the deployment.
func (s *System) Stop() { s.rt.Stop() }

// Ref is a convenience for building TaskOptions state references inline.
func Ref(id StateID) *StateID { return &id }
