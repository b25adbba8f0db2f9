package runtime

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// ShardConfig turns a Runtime into one worker's slice of a sharded
// deployment: every TE and SE keeps its global instance identity (origin
// IDs, partition routing) while only the [First, First+Count) slice is
// instantiated locally. Items routed off-slice travel over cut dataflow
// edges to the owning peer (see remoteedge.go).
type ShardConfig struct {
	Worker  int // this worker's index in [0, Workers)
	Workers int
	// Global shards for this worker, keyed by element name. A missing entry
	// defaults to a single global instance placed on worker 0.
	TEs map[string]wire.Shard
	SEs map[string]wire.Shard
	// Peers holds every worker's data-plane address, indexed by worker;
	// the entry for this worker is ignored.
	Peers []string
	// Dialer opens a transport to a peer address. Defaults to cluster.Dial.
	Dialer func(addr string) (cluster.Transport, error)
	// AwaitRestore starts the runtime sealed against RemoteEmit until a
	// restore stream completes (set by the coordinator when recovering a
	// worker that has a snapshot to load first).
	AwaitRestore bool
}

func (sc *ShardConfig) validate() error {
	if sc.Workers < 1 {
		return fmt.Errorf("runtime: shard config: Workers = %d", sc.Workers)
	}
	if sc.Worker < 0 || sc.Worker >= sc.Workers {
		return fmt.Errorf("runtime: shard config: worker %d out of range [0,%d)", sc.Worker, sc.Workers)
	}
	return nil
}

// shardFor resolves a shard entry with the single-instance-on-worker-0
// default.
func shardFor(m map[string]wire.Shard, name string, worker, workers int) wire.Shard {
	if sh, ok := m[name]; ok {
		return sh
	}
	first, count := shardSplit(1, worker, workers)
	return wire.Shard{First: first, Count: count, Total: 1}
}

// shardSplit places total instances contiguously across workers: the first
// total%workers workers take one extra. Returns this worker's [first,
// first+count) slice.
func shardSplit(total, worker, workers int) (first, count int) {
	base := total / workers
	rem := total % workers
	if worker < rem {
		return worker * (base + 1), base + 1
	}
	return rem*(base+1) + (worker-rem)*base, base
}

// shardOwner inverts shardSplit: the worker owning global instance g of an
// element with total instances.
func shardOwner(total, workers, g int) int {
	base := total / workers
	rem := total % workers
	if g < rem*(base+1) {
		return g / (base + 1)
	}
	// base == 0 cannot reach here: every instance is inside the rem block.
	return rem + (g-rem*(base+1))/base
}
