package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the repository root: the one place
// that declares the run length, the workloads and why each exists, and
// every metric with its unit, direction and bound. The program reads it at
// start-up and keeps no table of its own.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one declared metric. Bound, end-to-end only, is the share
// of the median by which the metric may worsen before a change counts as a
// regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkFile reads BENCHMARK.json and checks that it and the
// program name the same workloads.
func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(specs) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if _, ok := findSpec(w.Name); !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares workload %q, which the program does not have", w.Name)
		}
	}
	return &bf, nil
}
