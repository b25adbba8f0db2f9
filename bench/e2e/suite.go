package main

import (
	"fmt"
	"os"
)

// suiteRun measures every workload once untraced and once traced, prints
// every metric, and writes the run record.
func (b bench) suiteRun(seed int64, seconds int) error {
	runs, err := b.suite(seed, seconds, true)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func (b bench) suite(seed int64, seconds int, withTrace bool) ([]*result, error) {
	var runs []*result
	for _, w := range b.file.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && !withTrace {
				continue
			}
			res, err := b.measure(w.Name, seed, seconds, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(os.Stdout, res)
			runs = append(runs, res)
		}
	}
	return runs, writeRecord(b.root, fmt.Sprintf("e2e-seed%d.json", seed), seed, seconds, runs)
}

// aaRun is the benchmark's own acceptance test: the same code measured
// 2×k times, alternately into sets A and B, must agree with itself within
// every end-to-end metric's bound.
func (b bench) aaRun(seed int64, seconds, k int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*k; i++ {
		runs, err := b.suite(seed+int64(i), seconds, false)
		if err != nil {
			return err
		}
		for _, r := range runs {
			if r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
			for _, def := range b.file.EndToEnd {
				id := key{r.Workload, def.Name}
				sets[i%2][id] = append(sets[i%2][id], r.Metrics[def.Name].Value)
			}
		}
	}
	fmt.Printf("\n| workload | metric | median A | median B | gap | bound |\n|---|---|---|---|---|---|\n")
	over := 0
	for _, w := range b.file.Workloads {
		for _, def := range b.file.EndToEnd {
			id := key{w.Name, def.Name}
			ma, mb := median(sets[0][id]), median(sets[1][id])
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = -gap
			}
			mark := ""
			if gap > def.Bound {
				mark = " **over**"
				over++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.1f %% | %.0f %%%s |\n", w.Name, def.Name, ma, mb, 100*gap, 100*def.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of runs of the same code by more than their bound", over)
	}
	return nil
}
