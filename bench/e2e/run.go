package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"syscall"
	"time"
)

// metric is one reported number. Samples is how many observations the
// value summarises (0 when it is a single reading).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	Series    map[string][]float64 `json:"series"`
	FirstFail string               `json:"first_failure,omitempty"`

	units int64 // work units the measured phases carried
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// runConfig sizes a run. The defaults are the benchmark; the smoke test
// shrinks them.
type runConfig struct {
	root    string // repository checkout
	seed    int64
	seconds int // measured time per run
	traced  bool
	warm    time.Duration // untimed closed-loop warm-up before the phases
	// scale divides key counts and cycle sizes (smoke test only).
	scale int
}

func defaultConfig(root string, seed int64, seconds int, traced bool) runConfig {
	return runConfig{root: root, seed: seed, seconds: seconds, traced: traced,
		warm: 1500 * time.Millisecond, scale: 1}
}

// split divides the measured time between the closed and the open phase
// in whole blocks. The closed phase, whose blocks are the samples behind
// work_per_s, takes the odd one: 30 s is 16 s closed and 14 s open.
func split(total time.Duration) (closed, open time.Duration) {
	if total < 2*blockLen {
		return total / 2, total / 2
	}
	blocks := int(total / blockLen)
	closed = time.Duration((blocks+1)/2) * blockLen
	return closed, total - closed
}

// live is a deployment that has been set up: workers running, every key
// preloaded, one checkpoint taken.
type live struct {
	d *deployment
	l load
}

// setUp is the set-up a user of the system pays before serving: spawn the
// workers, deploy the graph, load every key, take the first checkpoint.
func setUp(sp spec, cfg runConfig, bin string, tr *tracer) (*live, time.Duration, error) {
	start := time.Now()
	d, err := deploy(sp, bin, tr)
	if err != nil {
		return nil, 0, err
	}
	var l load
	if sp.graph == "kv" {
		l = newKVLoad(d.coord, sp.keys/cfg.scale, workers, cfg.seed, tr)
	} else {
		l = newIngestLoad(d.coord, sp.keys/cfg.scale, workers, cfg.seed, tr)
	}
	if err := l.preload(); err != nil {
		d.close()
		return nil, 0, err
	}
	if err := d.coord.Checkpoint(); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("first checkpoint: %w", err)
	}
	return &live{d: d, l: l}, time.Since(start), nil
}

// checkpointer returns the per-block hook of workloads that checkpoint,
// and collects how long each checkpoint took.
func checkpointer(sp spec, lv *live, took *durs, failed *int64) func() {
	if !sp.ckpt {
		return nil
	}
	return func() {
		t0 := time.Now()
		var err error
		lv.d.tr.root("Coordinator.Checkpoint", "", func() { err = lv.d.coord.Checkpoint() })
		*took = append(*took, float64(time.Since(t0)))
		if err != nil {
			*failed++
		}
	}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newResult starts a run's result.
func newResult(sp spec, cfg runConfig) *result {
	return &result{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Metrics: map[string]metric{}, Series: map[string][]float64{}}
}

// phases runs the workload's measured phases for total on a live
// deployment and reports what both modes share: work_per_s from the closed
// phase (or the cycles), the latency, CPU and byte metrics from the open
// phase (or the cycles' injections), and the driver.* context.
func phases(sp spec, cfg runConfig, lv *live, total time.Duration, can *canary, res *result) error {
	var ckpts durs
	var ckptFailed int64
	var open phase
	var cpu time.Duration
	var netBytes int64
	if sp.cycleItems > 0 {
		can.sample()
		cy, err := runCycles(sp, cfg, lv, total)
		if err != nil {
			return err
		}
		can.sample()
		cy.report(res)
		open, cpu, netBytes = cy.inject, cy.cpu, cy.netBytes
		res.Attempted += cy.inject.ops
		res.units = cy.inject.units
	} else {
		atBlock := checkpointer(sp, lv, &ckpts, &ckptFailed)
		closedFor, openFor := split(total)
		can.sample()
		benchCPU := selfCPU()
		closed := closedPhase(workers, closedFor, lv.l.op, atBlock)
		benchCPU = selfCPU() - benchCPU
		can.sample()
		// Untimed: quiesce and checkpoint so the closed phase's backlog and
		// logs do not spill into the open phase's bytes, CPU and latencies.
		if !lv.d.coord.Drain(60 * time.Second) {
			return fmt.Errorf("deployment did not quiesce between phases")
		}
		if err := lv.d.coord.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint between phases: %w", err)
		}
		cpu, netBytes = lv.d.workerCPU(), lv.d.coordLinks.bytes.Load()
		open = openPhase(sp.rate, openFor, lv.l.op, atBlock)
		cpu, netBytes = lv.d.workerCPU()-cpu, lv.d.coordLinks.bytes.Load()-netBytes
		can.sample()

		rates := closed.blockRates()
		res.Series["closed_block_rate"] = rates
		sr := sortedCopy(rates)
		res.set("work_per_s", quantile(sr, 0.5), "1/s", len(rates))
		res.set("driver.block_rate_q1", quantile(sr, 0.25), "1/s", len(rates))
		res.set("driver.block_rate_q3", quantile(sr, 0.75), "1/s", len(rates))
		res.set("driver.closed_op_p50_us", median(closed.lat)/1e3, "us", len(closed.lat))
		res.set("process.bench_cpu_us_per_op", benchCPU.Seconds()*1e6/float64(closed.units), "us", int(closed.units))
		if len(ckpts) > 0 {
			res.set("driver.ckpt_s", median(ckpts)/1e9, "s", len(ckpts))
		}
		res.Attempted += closed.ops + open.ops + open.missed
		res.units = closed.units + open.units
		res.Failed += open.missed + ckptFailed
	}
	reportOpen(res, open)
	res.set("worker_cpu_us_per_op", cpu.Seconds()*1e6/float64(open.units), "us", int(open.units))
	res.set("net_bytes_per_op", float64(netBytes)/float64(open.units), "B", int(open.units))
	return nil
}

// finish checks the deployment's final state against the oracle and
// records the canaries.
func finish(lv *live, can *canary, res *result) error {
	checked, wrong, err := lv.l.verify()
	if err != nil {
		return err
	}
	res.Attempted += checked
	res.Failed += wrong + lv.l.failures()
	res.FirstFail = lv.l.firstFailure()
	if wrong > 0 && res.FirstFail == "" {
		res.FirstFail = fmt.Sprintf("final state: %d of %d keys differ from the oracle", wrong, checked)
	}
	res.Series["calib_spin_ns"] = can.spinNs
	res.Series["calib_rtt_us"] = can.rttUs
	res.set("driver.calib_spin_ns", median(can.spinNs), "ns", len(can.spinNs))
	res.set("driver.calib_rtt_us", median(can.rttUs), "us", len(can.rttUs))
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	res.set("process.bench_heap_peak_mb", float64(ms.HeapSys)/(1<<20), "MB", 0)
	return nil
}

// run measures one workload once, untraced, on real worker processes.
func run(sp spec, cfg runConfig) (*result, error) {
	res := newResult(sp, cfg)
	bin, built, err := buildWorker(cfg.root)
	if err != nil {
		return nil, err
	}
	res.set("process.build_s", built.Seconds(), "s", 0)
	can, err := newCanary()
	if err != nil {
		return nil, err
	}
	defer can.close()

	lv, took, err := setUp(sp, cfg, bin, nil)
	if err != nil {
		return nil, err
	}
	defer lv.d.close()
	res.set("setup_s", took.Seconds(), "s", 1)

	if sp.cycleItems == 0 {
		closedPhase(workers, cfg.warm, lv.l.op, nil)
	}
	if err := phases(sp, cfg, lv, time.Duration(cfg.seconds)*time.Second, can, res); err != nil {
		return nil, err
	}
	// Peak memory is read before the oracle's DumpKV, whose whole-store
	// reply frames would otherwise be the peak.
	res.set("worker_rss_peak_mb", lv.d.rssPeakMB(), "MB", 0)
	res.set("process.worker_cpu_s", lv.d.workerCPU().Seconds(), "s", 0)
	if err := finish(lv, can, res); err != nil {
		return nil, err
	}
	return res, nil
}

// reportOpen turns the fixed-rate phase (or, for kill_recover, the
// injections of every cycle) into the latency metrics.
func reportOpen(res *result, p phase) {
	lat := sortedCopy(p.lat)
	n := len(lat)
	res.set("driver.op_p50_ms", quantile(lat, 0.5)/1e6, "ms", n)
	res.set("driver.op_p99_ms", quantile(lat, 0.99)/1e6, "ms", n)
	res.set("driver.op_p999_ms", quantile(lat, 0.999)/1e6, "ms", n)
	res.set("driver.op_max_ms", quantile(lat, 1)/1e6, "ms", n)
	stalled := 0
	for _, v := range lat {
		if v > 10e6 {
			stalled++
		}
	}
	if n > 0 {
		res.set("driver.stall_share", float64(stalled)/float64(n), "ratio", n)
	}
	if len(p.lag) > 0 {
		lag := sortedCopy(p.lag)
		res.set("driver.offered_per_s", float64(p.ops)/p.dur.Seconds(), "1/s", n)
		res.set("driver.sched_lag_p50_us", quantile(lag, 0.5)/1e3, "us", n)
		res.set("driver.sched_lag_p99_us", quantile(lag, 0.99)/1e3, "us", n)
	}
}

// outDir is where run records and span files go; .gitignore names it.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}
