package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
)

// record is what a run leaves on disk: enough to tell, months later, what
// was measured, on what, and with which parameters.
type record struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	Host       string    `json:"host"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Params     params    `json:"params"`
	Runs       []*result `json:"runs"`
}

// params lists every fixed quantity of the benchmark.
type params struct {
	Workers      int          `json:"workers"`
	BlockSeconds float64      `json:"block_seconds"`
	ValueBytes   int          `json:"value_bytes"`
	IngestBatch  int          `json:"ingest_batch"`
	WarmSeconds  float64      `json:"warm_seconds"`
	Workloads    []specParams `json:"workloads"`
}

type specParams struct {
	Name        string  `json:"name"`
	Graph       string  `json:"graph"`
	Keys        int     `json:"keys"`
	Checkpoint  bool    `json:"checkpoint_every_block"`
	OpenRate    float64 `json:"open_ops_per_s"`
	CycleItems  int     `json:"cycle_items"`
	Settle      bool    `json:"settle_before_kill"`
	BatchSize   int     `json:"worker_batch_size"`
	HeartbeatMs float64 `json:"heartbeat_ms"`
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository (the driver's) reports "unknown".
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeRecord(root, file string, seed int64, seconds int, runs []*result) error {
	dir, err := outDir(root)
	if err != nil {
		return err
	}
	cfg := defaultConfig(root, seed, seconds, false)
	host, _ := os.Hostname() // an unnamed host is still a valid record
	rec := record{
		Seed: seed, Seconds: seconds, Commit: commit(root), GoVersion: goruntime.Version(),
		Host: host, NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Params: params{Workers: workers, BlockSeconds: blockLen.Seconds(), ValueBytes: valueBytes,
			IngestBatch: ingestBatch, WarmSeconds: cfg.warm.Seconds()},
		Runs: runs,
	}
	for _, sp := range specs {
		rec.Params.Workloads = append(rec.Params.Workloads, specParams{
			Name: sp.name, Graph: sp.graph, Keys: sp.keys, Checkpoint: sp.ckpt, OpenRate: sp.rate,
			CycleItems: sp.cycleItems, Settle: sp.settleBeforeKill, BatchSize: sp.opts.BatchSize,
			HeartbeatMs: float64(sp.opts.HeartbeatInterval.Microseconds()) / 1e3,
		})
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}
