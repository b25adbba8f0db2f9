package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// Fig11Row is one (state size, strategy) recovery measurement.
type Fig11Row struct {
	StateBytes int64
	M, N       int // m backup nodes -> n recovered nodes
	Recovery   time.Duration
}

// fig11DiskBW keeps restore I/O on the critical path, as the paper's disks
// did for GB-scale state.
const fig11DiskBW = 40 << 20

// Fig11 reproduces Fig. 11: recovery time under the four m-to-n strategies
// {1-1, 2-1, 1-2, 2-2} across state sizes. The paper's shape: 1-to-1 is
// slowest; 2-to-2 is fastest because it parallelises both the disk reads
// and the state reconstruction; at large state, reconstruction dominates
// disk I/O, so adding recovery nodes helps more than adding disks.
func Fig11(scale Scale) ([]Fig11Row, *Table, error) {
	sizes := []int64{2 << 20, 8 << 20, 24 << 20}
	strategies := []struct{ m, n int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}}
	const valueSize = 256
	var rows []Fig11Row

	for _, size := range sizes {
		for _, s := range strategies {
			cl := cluster.New(0, cluster.Config{DiskWriteBW: fig11DiskBW, DiskReadBW: fig11DiskBW})
			// Backup store with exactly m target nodes: checkpoint chunks
			// land on them round-robin.
			targets := make([]*cluster.Node, s.m)
			for i := range targets {
				targets[i] = cl.AddNode()
			}
			app, err := kv.New(kv.Config{Partitions: 1, Runtime: runtime.Options{
				Cluster:  cl,
				Mode:     checkpoint.ModeAsync,
				Interval: time.Hour, // manual checkpoint only
				Backup:   checkpoint.NewBackup(cl, targets),
			}})
			if err != nil {
				return nil, nil, err
			}
			preloadKV(app, size, valueSize)
			if _, err := app.Runtime().CheckpointNow("store", 0); err != nil {
				return nil, nil, err
			}
			// Fail the store node and measure recovery to n nodes.
			node := findSENode(app.Runtime(), "store")
			app.Runtime().KillNode(node)
			stats, err := app.Runtime().Recover("store", s.n)
			if err != nil {
				return nil, nil, err
			}
			app.Runtime().Drain(30 * time.Second)
			rows = append(rows, Fig11Row{
				StateBytes: size, M: s.m, N: s.n, Recovery: stats.Total,
			})
			app.Stop()
		}
	}

	table := &Table{
		Title:  "Fig 11: recovery time under m-to-n strategies",
		Note:   "paper: 1-to-1 slowest, 2-to-2 fastest; reconstruction dominates at large state",
		Header: []string{"state(MB)", "strategy", "recovery(ms)"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			mb(r.StateBytes), fmt.Sprintf("%d-to-%d", r.M, r.N),
			f0(float64(r.Recovery.Milliseconds())),
		})
	}
	return rows, table, nil
}

func findSENode(rt *runtime.Runtime, se string) int {
	for _, s := range rt.Stats().SEs {
		if s.Name == se && len(s.Nodes) > 0 {
			return s.Nodes[0]
		}
	}
	return -1
}
