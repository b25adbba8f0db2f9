package experiments

import (
	"time"

	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// Fig12Row is one (mode, state size) point of the checkpointing comparison.
type Fig12Row struct {
	Mode       string
	StateBytes int64
	Throughput float64
	// Worst is the maximum observed request latency. With closed-loop
	// drivers a checkpoint stall hits only the in-flight requests, so tail
	// percentiles under-weight it; the paper's open-loop 99th-percentile
	// explosion corresponds to the worst-case request here.
	Worst time.Duration
}

// Fig12 reproduces Fig. 12: synchronous vs asynchronous checkpointing as
// state grows. The paper: sync loses 33% throughput at the largest state
// with seconds of latency (the system stops while checkpointing); async
// costs ~5% throughput and keeps latency an order of magnitude lower, only
// moderately growing — because only the dirty-state merge locks the SE.
func Fig12(scale Scale) ([]Fig12Row, *Table, error) {
	sizes := []int64{2 << 20, 8 << 20, 16 << 20}
	const valueSize = 256
	// Several checkpoints must land inside the measurement window for the
	// modes to differ (the paper runs minutes at a 10 s interval).
	interval := scale.PointDuration / 4
	var rows []Fig12Row

	for _, size := range sizes {
		for _, mode := range []checkpoint.Mode{checkpoint.ModeSync, checkpoint.ModeAsync} {
			cl := cluster.New(0, cluster.Config{DiskWriteBW: fig6DiskBW, DiskReadBW: fig6DiskBW})
			app, err := kv.New(kv.Config{Partitions: 1, Runtime: runtime.Options{
				Cluster:  cl,
				Mode:     mode,
				Interval: interval,
			}})
			if err != nil {
				return nil, nil, err
			}
			keys := preloadKV(app, size, valueSize)
			tput, _ := driveKV(app, 0, valueSize, keys, scale)
			worst := app.Runtime().CallLatency.Max()
			rows = append(rows, Fig12Row{
				Mode: mode.String(), StateBytes: size, Throughput: tput, Worst: worst,
			})
			app.Stop()
		}
	}

	table := &Table{
		Title:  "Fig 12: synchronous vs asynchronous checkpointing",
		Note:   "paper: sync -33% tput and 2-8s p99 at large state; async ~5% impact, 200-500ms",
		Header: []string{"state(MB)", "mode", "tput(req/s)", "worst lat(ms)"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			mb(r.StateBytes), r.Mode, f0(r.Throughput), ms(r.Worst),
		})
	}
	return rows, table, nil
}
