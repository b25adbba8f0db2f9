package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	_ "repro/internal/apps/kv" // registers the kv graph
	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// SnapBenchConfig sizes the snapshot-transfer measurement: one in-process
// worker loaded with a kv store, checkpointed once over the streaming
// protocol, with the pre-streaming monolithic MsgSnapshot frame measured
// against it on the same state.
type SnapBenchConfig struct {
	Keys       int // store size in keys (default 20_000)
	ValueBytes int // value payload per key (default 64)
	ChunkBytes int // streamed part payload bound (default 64 KiB)
}

func (c SnapBenchConfig) withDefaults() SnapBenchConfig {
	if c.Keys <= 0 {
		c.Keys = 20_000
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 64 << 10
	}
	return c
}

// SnapBenchResult compares the streamed snapshot pull against the
// monolithic frame the v1 protocol would have moved for the same state.
// Every figure is a deterministic byte or chunk count (the repo's bench
// policy bans wall-clock assertions); PeakFrameBytes is the coordinator's
// actual in-flight buffering bound, which is the number the streaming
// refactor exists to shrink.
type SnapBenchResult struct {
	Keys       int `json:"keys"`
	ValueBytes int `json:"value_bytes"`
	ChunkBytes int `json:"chunk_bytes"`

	Chunks          int     `json:"chunks"`             // parts pulled by the streaming checkpoint
	RawBytes        int64   `json:"raw_bytes"`          // encoded part bytes before retention compression
	StoredBytes     int64   `json:"stored_bytes"`       // bytes the coordinator retains (post-flate)
	PeakFrameBytes  int64   `json:"peak_frame_bytes"`   // largest single snapshot-path frame
	MonolithicBytes int64   `json:"monolithic_bytes"`   // the v1 MsgSnapshot reply for the same state
	PeakVsMonolith  float64 `json:"peak_vs_monolithic"` // PeakFrameBytes / MonolithicBytes
}

// RunSnapBench loads one worker, checkpoints it over the streaming
// protocol, and measures the monolithic alternative on identical state.
func RunSnapBench(cfg SnapBenchConfig) (SnapBenchResult, error) {
	cfg = cfg.withDefaults()
	res := SnapBenchResult{Keys: cfg.Keys, ValueBytes: cfg.ValueBytes, ChunkBytes: cfg.ChunkBytes}

	w := runtime.NewWorker()
	defer w.Close()
	ep := runtime.WorkerEndpoint{
		Data:    cluster.Local(w.Handler(), 0),
		Control: cluster.Local(w.Handler(), 0),
	}
	coord, err := runtime.NewCoordinator("kv", []runtime.WorkerEndpoint{ep}, runtime.CoordOptions{
		Partitions:     map[string]int{"store": 2},
		SnapChunkBytes: cfg.ChunkBytes,
	})
	if err != nil {
		return res, err
	}
	defer coord.Close()

	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte(i)
	}
	const batch = 512
	items := make([]runtime.InjectItem, 0, batch)
	for k := 0; k < cfg.Keys; k++ {
		items = append(items, runtime.InjectItem{Key: uint64(k), Value: val})
		if len(items) == batch || k == cfg.Keys-1 {
			if err := coord.InjectBatch("put", items); err != nil {
				return res, fmt.Errorf("snap bench: inject: %w", err)
			}
			items = items[:0]
		}
	}
	if !coord.Drain(60 * time.Second) {
		return res, fmt.Errorf("snap bench: deployment did not quiesce")
	}

	// The monolithic baseline first: the exact frame the v1 protocol would
	// move, measured on the same loaded state via the worker's own handler.
	reqFrame, err := wire.Encode(wire.MsgSnapshotReq, wire.SnapshotReq{Chunks: 2})
	if err != nil {
		return res, err
	}
	mono := cluster.Local(w.Handler(), 0)
	resp, err := mono.Call(reqFrame)
	mono.Close()
	if err != nil {
		return res, fmt.Errorf("snap bench: monolithic snapshot: %w", err)
	}
	res.MonolithicBytes = int64(len(resp))

	if err := coord.Checkpoint(); err != nil {
		return res, fmt.Errorf("snap bench: checkpoint: %w", err)
	}
	stats := coord.SnapshotStats()
	res.Chunks = stats.Chunks
	res.RawBytes = stats.RawBytes
	res.StoredBytes = stats.StoredBytes
	res.PeakFrameBytes = stats.PeakFrameBytes
	if res.MonolithicBytes > 0 {
		res.PeakVsMonolith = float64(res.PeakFrameBytes) / float64(res.MonolithicBytes)
	}

	// Sanity: the streamed transfer must actually have split the state and
	// bounded the coordinator's largest frame below the monolithic one, or
	// the record above measures a broken configuration.
	if res.Chunks <= 1 {
		return res, fmt.Errorf("snap bench: state streamed as %d chunk(s); expected a split", res.Chunks)
	}
	if res.RawBytes <= 0 {
		return res, fmt.Errorf("snap bench: streamed 0 bytes")
	}
	if res.PeakFrameBytes >= res.MonolithicBytes {
		return res, fmt.Errorf("snap bench: peak streamed frame %d B not below monolithic %d B",
			res.PeakFrameBytes, res.MonolithicBytes)
	}
	return res, nil
}

// WriteSnapBench runs the snapshot-transfer benchmark, prints a summary
// table, and (when outPath is non-empty) writes the structured result as
// JSON for CI and the perf ledger.
func WriteSnapBench(w io.Writer, cfg SnapBenchConfig, outPath string) error {
	res, err := RunSnapBench(cfg)
	if err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	tbl := &Table{
		Title:  "snapshot transfer: streamed chunks vs monolithic frame",
		Note:   fmt.Sprintf("%d keys x %d B values, %d B chunk bound", cfg.Keys, cfg.ValueBytes, cfg.ChunkBytes),
		Header: []string{"protocol", "chunks", "raw B", "retained B", "peak frame B"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"streamed", fmt.Sprintf("%d", res.Chunks), fmt.Sprintf("%d", res.RawBytes),
			fmt.Sprintf("%d", res.StoredBytes), fmt.Sprintf("%d", res.PeakFrameBytes)},
		[]string{"monolithic", "1", fmt.Sprintf("%d", res.MonolithicBytes), "-",
			fmt.Sprintf("%d", res.MonolithicBytes)},
	)
	tbl.Fprint(w)
	fmt.Fprintf(w, "peak in-flight frame is %.1f%% of the monolithic snapshot\n\n", 100*res.PeakVsMonolith)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return writeRecord(outPath, data)
}
