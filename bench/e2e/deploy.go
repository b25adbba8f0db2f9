package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// spec is one workload. The values are the benchmark's definition: a
// change to any of them starts a new baseline. BENCHMARK.json says why each
// workload exists, README.md why each value was chosen.
type spec struct {
	name  string
	graph string
	keys  int
	// ckpt issues a Coordinator.Checkpoint at the start of every block of
	// both phases.
	ckpt bool
	// rate is the open phase's offered load in ops per second (calls for
	// kv, 256-item batches for ingest).
	rate float64
	// cycleItems makes the workload closed-only kill→recover cycles of this
	// many items each.
	cycleItems int
	// settleBeforeKill drains the deployment before each SIGKILL.
	// TEMPORARY: it steps around a data-loss race in Runtime.ResetPeer
	// (README.md, "A bug the oracle found") and goes when that is fixed.
	settleBeforeKill bool
	opts             runtime.CoordOptions
}

var specs = []spec{
	{
		name:  "kv_call",
		graph: "kv", keys: 400_000, rate: 4000,
	},
	{
		name:  "kv_call_ckpt",
		graph: "kv", keys: 400_000, rate: 4000, ckpt: true,
	},
	{
		name:  "edge_ingest",
		graph: "counterchain", keys: 65_536, rate: 150_000 / ingestBatch, ckpt: true,
		opts: runtime.CoordOptions{Partitions: map[string]int{"counts": 2}, BatchSize: 64},
	},
	{
		name:  "kill_recover",
		graph: "counterchain", keys: 1_000_000, cycleItems: 262_144, settleBeforeKill: true,
		opts: runtime.CoordOptions{Partitions: map[string]int{"counts": 2}, BatchSize: 64,
			HeartbeatInterval: 50 * time.Millisecond},
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// workers is how many worker processes every workload deploys: one per
// core up to two, which is also what the cut edge needs.
const workers = 2

// deployment is a coordinator in this process plus the workers it drives.
type deployment struct {
	coord *runtime.Coordinator
	hosts []host
	dead  []host // killed incarnations, kept for their CPU and RSS
	bin   string // sdg-worker binary; empty hosts workers in this process
	tr    *tracer

	coordLinks linkCounters // coordinator↔worker, data and control
	peerLinks  linkCounters // worker↔worker (only in-process workers are decorated)
	// RemoteEmit frames on the peer links: accepted frames, the items in
	// them, and frames the receiver rejected or the link failed.
	emitFrames, emitItems, emitRejected atomic.Int64
}

// spawn starts one more worker host.
func (d *deployment) spawn() (host, error) {
	if d.bin != "" {
		return spawnProc(d.bin)
	}
	return spawnLocal(d.dialPeer)
}

// dialPeer is the dialer in-process workers use for cross-worker edges.
func (d *deployment) dialPeer(addr string) (cluster.Transport, error) {
	c, err := cluster.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetCallTimeout(10 * time.Second)
	return &peerLink{link: link{inner: c, class: "peer", n: &d.peerLinks, tr: d.tr}, d: d}, nil
}

// peerLink additionally counts the items RemoteEmit frames carried, from
// the ack, after the span has closed.
type peerLink struct {
	link
	d *deployment
}

func (l *peerLink) Call(req []byte) ([]byte, error) {
	resp, err := l.link.Call(req)
	if len(req) == 0 || req[0] != wire.MsgRemoteEmit {
		return resp, err
	}
	if err != nil {
		l.d.emitRejected.Add(1)
		return resp, err
	}
	var ack wire.RemoteEmitAck
	if wire.Expect(resp, wire.MsgRemoteEmitAck, &ack) == nil {
		l.d.emitFrames.Add(1)
		l.d.emitItems.Add(int64(ack.Accepted))
	}
	return resp, err
}

// endpoint dials a host's data and control links.
func (d *deployment) endpoint(h host) (runtime.WorkerEndpoint, error) {
	dial := func(class string, timeout time.Duration) (cluster.Transport, error) {
		c, err := cluster.Dial(h.addr())
		if err != nil {
			return nil, err
		}
		c.SetCallTimeout(timeout)
		return &link{inner: c, class: class, n: &d.coordLinks, tr: d.tr}, nil
	}
	data, err := dial("data", 30*time.Second)
	if err != nil {
		return runtime.WorkerEndpoint{}, err
	}
	ctrl, err := dial("ctrl", 10*time.Second)
	if err != nil {
		data.Close()
		return runtime.WorkerEndpoint{}, err
	}
	return runtime.WorkerEndpoint{Addr: h.addr(), Data: data, Control: ctrl}, nil
}

// deploy spawns the workers and deploys the workload's graph on them.
func deploy(sp spec, bin string, tr *tracer) (*deployment, error) {
	d := &deployment{bin: bin, tr: tr}
	var eps []runtime.WorkerEndpoint
	for i := 0; i < workers; i++ {
		h, err := d.spawn()
		if err != nil {
			d.close()
			return nil, err
		}
		d.hosts = append(d.hosts, h)
		ep, err := d.endpoint(h)
		if err != nil {
			d.close()
			return nil, err
		}
		eps = append(eps, ep)
	}
	coord, err := runtime.NewCoordinator(sp.graph, eps, sp.opts)
	if err != nil {
		// NewCoordinator closed the endpoints it was given.
		d.close()
		return nil, fmt.Errorf("deploy %s: %w", sp.graph, err)
	}
	d.coord = coord
	return d, nil
}

// close shuts the deployment down and waits for every worker to be gone.
func (d *deployment) close() {
	if d.coord != nil {
		d.coord.Close() // sends Stop to live workers
		for _, h := range d.hosts {
			h.stop()
		}
	} else {
		for _, h := range d.hosts {
			h.kill()
		}
	}
	d.hosts = nil
}

// workerCPU sums CPU time over every worker incarnation so far.
func (d *deployment) workerCPU() time.Duration {
	var total time.Duration
	for _, h := range d.hosts {
		total += h.cpu()
	}
	for _, h := range d.dead {
		total += h.cpu()
	}
	return total
}

// rssPeakMB sums, over worker slots, the largest peak resident set any
// incarnation of that slot reached. Only slot 1 is ever killed.
func (d *deployment) rssPeakMB() float64 {
	var total int64
	for i, h := range d.hosts {
		peak := h.rssPeakKB()
		if i == 1 {
			for _, old := range d.dead {
				if kb := old.rssPeakKB(); kb > peak {
					peak = kb
				}
			}
		}
		total += peak
	}
	return float64(total) / 1024
}
