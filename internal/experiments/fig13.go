package experiments

import (
	"time"

	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// Fig13Row is one point of the checkpoint overhead sweep.
type Fig13Row struct {
	Label      string // frequency or size label; "No FT" for the baseline
	Interval   time.Duration
	StateBytes int64
	Latency    metrics.Candlestick
	// Worst is the maximum observed request latency; with closed-loop
	// drivers it is the metric that exposes checkpoint interference (cf.
	// Fig12Row.Worst).
	Worst time.Duration
	// DiskBytes is what the run wrote to its modelled backup disks, every
	// checkpoint it started included: the modelled cost that fault
	// tolerance adds, and zero for No FT.
	DiskBytes int64
}

// fig13ValueSize is the value size of every preloaded and written key.
const fig13ValueSize = 256

// Fig13 reproduces Fig. 13: the impact of checkpoint frequency (top) and
// state size (bottom) on processing latency, against a No-FT baseline. The
// paper: without fault tolerance p95 is 68 ms; checkpointing 1 GB every
// 10 s raises it to 500 ms; higher frequency or larger state degrade
// latency roughly proportionally, because the overhead is the dirty-state
// merge plus the checkpoint writes.
func Fig13(scale Scale) (freqRows, sizeRows []Fig13Row, table *Table, err error) {
	run := func(mode checkpoint.Mode, interval time.Duration, size int64) (Fig13Row, error) {
		cl := cluster.New(0, cluster.Config{DiskWriteBW: fig6DiskBW, DiskReadBW: fig6DiskBW})
		app, err := kv.New(kv.Config{Partitions: 1, Runtime: runtime.Options{
			Cluster:  cl,
			Mode:     mode,
			Interval: interval,
			Chunks:   2,
		}})
		if err != nil {
			return Fig13Row{}, err
		}
		keys := preloadKV(app, size, fig13ValueSize)
		_, lat := driveKV(app, 0, fig13ValueSize, keys, scale)
		row := Fig13Row{Interval: interval, StateBytes: size, Latency: lat, Worst: app.Runtime().CallLatency.Max()}
		// Stop waits for an in-flight checkpoint, so every one the run
		// started has landed on the disks before they are read.
		app.Stop()
		for i := 0; i < cl.Size(); i++ {
			written, _ := cl.Node(i).Disk.Stats()
			row.DiskBytes += written
		}
		return row, nil
	}

	// Top: frequency sweep at fixed state (paper: 2-10 s; scaled so that
	// the fastest cadence checkpoints several times per measurement).
	const freqState = 8 << 20
	freqs := []time.Duration{scale.PointDuration / 8, scale.PointDuration / 4, scale.PointDuration / 2}
	for _, f := range freqs {
		row, err := run(checkpoint.ModeAsync, f, freqState)
		if err != nil {
			return nil, nil, nil, err
		}
		row.Label = ms(f) + "ms"
		freqRows = append(freqRows, row)
	}
	noFT, err := run(checkpoint.ModeOff, 0, freqState)
	if err != nil {
		return nil, nil, nil, err
	}
	noFT.Label = "No FT"
	freqRows = append(freqRows, noFT)

	// Bottom: size sweep at fixed frequency (paper: 1-5 GB; scaled).
	sizeInterval := scale.PointDuration / 4
	sizes := []int64{2 << 20, 8 << 20, 20 << 20}
	sizeRows = append(sizeRows, noFT)
	for _, s := range sizes {
		row, err := run(checkpoint.ModeAsync, sizeInterval, s)
		if err != nil {
			return nil, nil, nil, err
		}
		row.Label = mb(s) + "MB"
		sizeRows = append(sizeRows, row)
	}

	table = &Table{
		Title:  "Fig 13: checkpoint frequency and size vs processing latency",
		Note:   "paper: No-FT p95 68ms -> 500ms at 1GB/10s; degrades ~proportionally with frequency and size",
		Header: []string{"sweep", "config", "p50(ms)", "p95(ms)", "worst(ms)", "disk(MB)"},
	}
	for _, r := range freqRows {
		table.Rows = append(table.Rows, []string{
			"frequency", r.Label, ms(r.Latency.P50), ms(r.Latency.P95), ms(r.Worst), mb(r.DiskBytes),
		})
	}
	for _, r := range sizeRows {
		table.Rows = append(table.Rows, []string{
			"state size", r.Label, ms(r.Latency.P50), ms(r.Latency.P95), ms(r.Worst), mb(r.DiskBytes),
		})
	}
	return freqRows, sizeRows, table, nil
}
