package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload in both modes at a fraction of its size
// and asserts only logical facts: every metric BENCHMARK.json declares is
// emitted with its unit, nothing failed, the oracles hold. It spawns worker
// processes, so -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sdg-worker processes; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	file, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	// A per-layer metric may read 0 on a workload that has no such thing,
	// but some workload must measure it.
	measured := map[string]bool{}
	for _, w := range file.Workloads {
		sp, _ := findSpec(w.Name)
		for _, traced := range []bool{false, true} {
			name := sp.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{root: root, seed: 3, seconds: 2, traced: traced,
					warm: 100 * time.Millisecond, scale: 20}
				if traced {
					cfg.seconds = 4 // a quarter each: baseline, closed, open
				}
				var res *result
				var err error
				if traced {
					res, err = runTraced(sp, cfg)
				} else {
					res, err = run(sp, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d (%s)", res.Attempted, res.Failed, res.FirstFail)
				}
				line, err := file.contractLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct {
					t.Error("result line says incorrect")
				}
				defs := file.EndToEnd
				if traced {
					defs = file.PerLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics on the result line, %d declared", len(out.Metrics), len(defs))
				}
				for _, def := range defs {
					m, ok := out.Metrics[def.Name]
					if !ok || m.Unit != def.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", def.Name, m, def.Unit)
					}
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is zero", def.Name)
					}
					if _, ok := res.Metrics[def.Name]; ok {
						measured[def.Name] = true
					}
				}
			})
		}
	}
	for _, def := range file.PerLayer {
		if !measured[def.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", def.Name)
		}
	}
}

// TestKillWithFramesInFlight is the reproducer for the data-loss race in
// Runtime.ResetPeer that kill_recover's settleBeforeKill steps around
// (README.md, "A bug the oracle found"): the issue's cycle, SIGKILL with
// RemoteEmit frames in flight, on in-process workers. It fails at this
// commit, usually within two minutes under -race, so it runs only when given
// a budget:
//
//	E2E_KILL_IN_FLIGHT=4m go test -race -run TestKillWithFramesInFlight ./bench/e2e
//
// The change that fixes ResetPeer removes the skip, settleBeforeKill and
// this comment's second half.
func TestKillWithFramesInFlight(t *testing.T) {
	budget, err := time.ParseDuration(os.Getenv("E2E_KILL_IN_FLIGHT"))
	if err != nil {
		t.Skip("known to fail until Runtime.ResetPeer is fixed; set E2E_KILL_IN_FLIGHT to a duration to run it")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := findSpec("kill_recover")
	sp.settleBeforeKill = false
	cfg := runConfig{root: root, seed: 1, scale: 20}
	lv, _, err := setUp(sp, cfg, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.d.close()
	// Checked every few cycles, so the failure names the cycle count at
	// which the first increments went missing.
	cycles := 0
	for spent := time.Duration(0); spent < budget; {
		cy, err := runCycles(sp, cfg, lv, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cycles += len(cy.total)
		spent += cy.inject.dur
		_, wrong, err := lv.l.verify()
		if err != nil {
			t.Fatal(err)
		}
		if wrong > 0 {
			t.Fatalf("within %d kill→recover cycles: %s", cycles, lv.l.firstFailure())
		}
	}
	t.Logf("%d kill→recover cycles, exact counts", cycles)
}
