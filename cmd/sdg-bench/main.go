// Command sdg-bench regenerates the paper's evaluation tables and figures
// (Table 1 and Figures 5-13 of "Making State Explicit for Imperative Big
// Data Processing", USENIX ATC 2014) at laptop scale.
//
// Usage:
//
//	sdg-bench                 # run every experiment in paper order
//	sdg-bench -fig 6          # run one experiment (0 = Table 1)
//	sdg-bench -full           # longer measurement points, smoother numbers
//	sdg-bench -list           # list experiment identifiers
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig       = flag.String("fig", "", "experiment to run (0 and 5-13); empty = all")
		full      = flag.Bool("full", false, "use longer measurement points")
		list      = flag.Bool("list", false, "list experiment identifiers")
		point     = flag.Duration("point", 0, "override measurement duration per point")
		ckpt      = flag.Bool("ckpt-bench", false, "measure full vs delta checkpoint cost and exit")
		ckptOut   = flag.String("ckpt-out", "BENCH_checkpoint.json", "JSON output path for -ckpt-bench (empty = stdout table only)")
		ckptKeys  = flag.Int("ckpt-keys", 100_000, "store size in keys for -ckpt-bench")
		pipe      = flag.Bool("pipe-bench", false, "measure dataflow hot-path cost across micro-batch sizes and exit")
		pipeOut   = flag.String("pipe-out", "BENCH_throughput.json", "JSON output path for -pipe-bench (empty = stdout table only)")
		pipeItems = flag.Int("pipe-items", 20_000, "injected items per batch size for -pipe-bench")
		bp        = flag.Bool("bp-bench", false, "measure offered load vs goodput under bounded admission and exit")
		bpOut     = flag.String("bp-out", "BENCH_backpressure.json", "JSON output path for -bp-bench (empty = stdout table only)")
		bpItems   = flag.Int("bp-items", 6_000, "items offered at load 1.0x for -bp-bench")
		elastic   = flag.Bool("elastic-bench", false, "drive a load sawtooth against the auto-scaler (grow and shrink) and exit")
		elOut     = flag.String("elastic-out", "BENCH_elasticity.json", "JSON output path for -elastic-bench (empty = stdout table only)")
		elItems   = flag.Int("elastic-items", 2_000, "items per flood phase for -elastic-bench")
		elCycles  = flag.Int("elastic-cycles", 2, "sawtooth cycles for -elastic-bench")
		distEdge  = flag.Bool("distedge-bench", false, "measure cross-worker edge throughput and wire cost (local and TCP transports) and exit")
		distOut   = flag.String("distedge-out", "BENCH_distedge.json", "JSON output path for -distedge-bench (empty = stdout table only)")
		distItems = flag.Int("distedge-items", 20_000, "items injected per transport variant for -distedge-bench")
		ledger    = flag.String("ledger", "", "update this rolling perf ledger from the BENCH_*.json records in -ledger-dir and exit")
		ledgerPR  = flag.Int("ledger-pr", 0, "PR number the ledger entry records (required with -ledger)")
		ledgerDir = flag.String("ledger-dir", ".", "directory holding the BENCH_*.json records -ledger folds in")
	)
	flag.Parse()

	if *ledger != "" {
		if *ledgerPR <= 0 {
			fmt.Fprintln(os.Stderr, "sdg-bench: -ledger requires -ledger-pr")
			os.Exit(2)
		}
		if err := experiments.UpdateLedger(*ledger, *ledgerPR, *ledgerDir); err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("ledger %s: recorded PR %d\n", *ledger, *ledgerPR)
		return
	}

	if *distEdge {
		err := experiments.WriteDistEdgeBench(os.Stdout,
			experiments.DistEdgeBenchConfig{Items: *distItems}, *distOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *ckpt {
		err := experiments.WriteCheckpointBench(os.Stdout,
			experiments.CheckpointBenchConfig{Keys: *ckptKeys}, *ckptOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *pipe {
		err := experiments.WritePipeBench(os.Stdout,
			experiments.PipeBenchConfig{Items: *pipeItems}, *pipeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *bp {
		err := experiments.WriteBPBench(os.Stdout,
			experiments.BPBenchConfig{Items: *bpItems}, *bpOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *elastic {
		err := experiments.WriteElasticBench(os.Stdout,
			experiments.ElasticBenchConfig{Items: *elItems, Cycles: *elCycles}, *elOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("experiments (paper identifiers):")
		fmt.Println("  0   Table 1: design-space taxonomy")
		fmt.Println("  5   CF throughput/latency vs read-write ratio")
		fmt.Println("  6   KV vs Naiad baselines, state-size sweep")
		fmt.Println("  7   KV multi-node scaling")
		fmt.Println("  8   streaming wordcount window sweep")
		fmt.Println("  9   batch logistic regression scalability")
		fmt.Println("  10  straggler mitigation timeline")
		fmt.Println("  11  m-to-n recovery strategies")
		fmt.Println("  12  sync vs async checkpointing")
		fmt.Println("  13  checkpoint frequency/size vs latency")
		return
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	if *point > 0 {
		scale.PointDuration = *point
	}

	runner := &experiments.Runner{Scale: scale, Out: os.Stdout}
	start := time.Now()
	var err error
	if *fig == "" {
		err = runner.RunAll()
	} else {
		err = runner.Run(*fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdg-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}
