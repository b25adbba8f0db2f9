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
		fig   = flag.String("fig", "", "experiment to run (0 and 5-13); empty = all")
		full  = flag.Bool("full", false, "use longer measurement points")
		list  = flag.Bool("list", false, "list experiment identifiers")
		point = flag.Duration("point", 0, "override measurement duration per point")
	)
	flag.Parse()

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
