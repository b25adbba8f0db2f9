package runtime

import (
	"time"

	"repro/internal/cluster"
)

type clusterT = cluster.Cluster

// newSlowCluster builds an empty cluster whose nodes get bandwidth-limited
// disks, so checkpoint timing tests have measurable I/O.
func newSlowCluster(diskBW int64) *cluster.Cluster {
	return cluster.New(0, cluster.Config{DiskWriteBW: diskBW, DiskReadBW: diskBW})
}

// chainLens reports how many epochs (base plus deltas) the coordinator
// retains of every SE instance, keyed by worker and worker-local index.
func (c *Coordinator) chainLens() map[[2]int]int {
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	out := map[[2]int]int{}
	for w, cw := range c.workers {
		if cw.snap != nil {
			for k, ch := range cw.snap.ses {
				out[[2]int{w, k.index}] = len(ch.refs)
			}
		}
	}
	return out
}

// awaitFolds waits until no retained chain needs a fold.
func (c *Coordinator) awaitFolds(timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); c.nextFold() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// foldDuring folds worker w's first chain that has deltas, whether or not
// the compaction rule asks for it (so the background compactor leaves it
// alone), and calls during between the fold and its swap: the fold is in
// flight throughout. It reports whether it found such a chain and whether
// the swap kept the fold.
func (c *Coordinator) foldDuring(w int, during func()) (found, swapped bool) {
	c.injMu.RLock()
	var job *foldJob
	if rs := c.workers[w].snap; rs != nil {
		for _, k := range rs.order {
			if ch := rs.ses[k]; len(ch.refs) > 1 && job == nil {
				job = &foldJob{k: k, ch: ch, recs: ch.recs, refs: ch.refs}
			}
		}
	}
	c.injMu.RUnlock()
	if job == nil || c.fold(job) != nil {
		return false, false
	}
	during()
	return true, c.swapFold(job)
}
