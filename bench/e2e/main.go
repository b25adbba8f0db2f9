// Command e2e is the repository's benchmark: it drives real sdg-worker
// processes through runtime.NewCoordinator over TCP, checks every result
// against a driver-side oracle, and reports the end-to-end metrics of
// BENCHMARK.json (untraced) or the per-layer metrics (traced). See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	// Graphs travel by registry name; the coordinator builds them here too.
	_ "repro/internal/apps/counter"
	_ "repro/internal/apps/kv"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and print one JSON result line (the driver's contract); empty runs the whole suite")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "measured seconds per run; 0 takes run_seconds from BENCHMARK.json")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	aa := flag.Int("aa", 0, "A/A mode: run the suite 2×K times, alternately into sets A and B, and fail if any median differs by more than its bound")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	file, err := loadBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = file.RunSeconds
	}
	b := bench{root: root, file: file}
	switch {
	case *workload != "":
		err = b.contractRun(*workload, *seed, *seconds, *trace != 0)
	case *aa > 0:
		err = b.aaRun(*seed, *seconds, *aa)
	default:
		err = b.suiteRun(*seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}

// bench is the checkout being measured and what its BENCHMARK.json
// declares.
type bench struct {
	root string
	file *benchmarkFile
}

// measure runs one workload once in the given mode.
func (b bench) measure(workload string, seed int64, seconds int, traced bool) (*result, error) {
	sp, ok := findSpec(workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	cfg := defaultConfig(b.root, seed, seconds, traced)
	if traced {
		return runTraced(sp, cfg)
	}
	return run(sp, cfg)
}

// contractRun is the driver's entry point: one workload, one mode, and as
// the last line of standard output one JSON object holding exactly the
// metrics BENCHMARK.json lists for that mode.
func (b bench) contractRun(workload string, seed int64, seconds int, traced bool) error {
	res, err := b.measure(workload, seed, seconds, traced)
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	if err := writeRecord(b.root, fmt.Sprintf("run-%s-seed%d-traced-%t.json", workload, seed, traced), seed, seconds, []*result{res}); err != nil {
		return err
	}
	line, err := b.file.contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// contractLine renders a run as the driver's result object. An untraced
// run must have measured every end-to-end metric. A per-layer metric that
// does not exist on a workload (recovery timings on kv_call) reads 0, so
// every traced run lists the same names.
func (f *benchmarkFile) contractLine(res *result) ([]byte, error) {
	names := f.EndToEnd
	if res.Traced {
		names = f.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, def := range names {
		m, ok := res.Metrics[def.Name]
		if !ok && !res.Traced {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, def.Name)
		}
		if ok && m.Unit != def.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", res.Workload, def.Name, m.Unit, def.Unit)
		}
		out.Metrics[def.Name] = value{m.Value, def.Unit}
	}
	return json.Marshal(out)
}

// printResult lists every metric of a run by name, with unit and sample
// count.
func printResult(w *os.File, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d %s: attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed)
	if res.FirstFail != "" {
		fmt.Fprintf(w, "   first failure: %s\n", res.FirstFail)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-44s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
}
