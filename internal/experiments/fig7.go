package experiments

import (
	"sync"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// Fig7Row is one node-count point of the distributed KV sweep.
type Fig7Row struct {
	Nodes      int
	StateBytes int64
	Throughput float64
	Latency    metrics.Candlestick
}

// fig7ServiceCost models the per-request service time of one store node
// (the paper's requests carry serialisation and network costs on real VMs).
// Modelling it as idle wait makes aggregate throughput a function of the
// partition count, independent of the host's core count.
const fig7ServiceCost = 200 * time.Microsecond

// Fig7 reproduces Fig. 7: KV store throughput and read latency as the store
// scales across nodes with constant per-node state (paper: 10-40 VMs at
// 5 GB/node; aggregate throughput scales near-linearly 0.47M -> 1.5M req/s,
// median latency 8-29 ms). Requests are driven open-loop so the measured
// rate is the servers' capacity rather than the driver's.
func Fig7(scale Scale) ([]Fig7Row, *Table, error) {
	nodeCounts := []int{1, 2, 4, 8}
	const perNode = int64(2 << 20) // 2 MB per node (scaled from 5 GB)
	const valueSize = 256
	var rows []Fig7Row
	for _, n := range nodeCounts {
		cl := cluster.New(0, cluster.Config{})
		app, err := kv.New(kv.Config{Partitions: n, Runtime: runtime.Options{
			Cluster:  cl,
			QueueLen: 512,
			Mode:     checkpoint.ModeAsync,
			Interval: maxDur(scale.PointDuration/2, 150*time.Millisecond),
		}})
		if err != nil {
			return nil, nil, err
		}
		keys := preloadKV(app, perNode*int64(n), valueSize)
		for _, se := range app.Runtime().Stats().SEs {
			for _, node := range se.Nodes {
				cl.Node(node).SetPenalty(fig7ServiceCost)
			}
		}

		// Open-loop feeders paced to ~80% of aggregate service capacity
		// (1/serviceCost per partition), so throughput scales with nodes
		// while queues stay shallow enough for meaningful latency.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		feeders := n
		perFeederBurst := 40 // per 10ms -> 4k req/s per feeder at 200us cost
		for c := 0; c < feeders; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := workload.NewKVGen(int64(500+c), keys, 0.9, valueSize)
				ticker := time.NewTicker(10 * time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-stop:
						return
					case <-ticker.C:
					}
					for i := 0; i < perFeederBurst; i++ {
						op := gen.Next()
						if op.Read {
							_ = app.Runtime().Inject("get", op.Key, nil)
						} else {
							_ = app.PutAsync(op.Key, op.Value)
						}
					}
				}
			}(c)
		}
		// One closed-loop client samples read latency.
		var latWG sync.WaitGroup
		latWG.Add(1)
		go func() {
			defer latWG.Done()
			gen := workload.NewKVGen(999, keys, 1.0, valueSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = app.Get(gen.Next().Key, 10*time.Second)
			}
		}()

		before := app.Runtime().Processed("get") + app.Runtime().Processed("put")
		time.Sleep(scale.PointDuration)
		served := app.Runtime().Processed("get") + app.Runtime().Processed("put") - before
		close(stop)
		wg.Wait()
		latWG.Wait()

		rows = append(rows, Fig7Row{
			Nodes:      n,
			StateBytes: perNode * int64(n),
			Throughput: float64(served) / scale.PointDuration.Seconds(),
			Latency:    app.Runtime().CallLatency.Candlestick(),
		})
		app.Stop()
	}
	table := &Table{
		Title:  "Fig 7: KV throughput/latency vs nodes, constant state per node",
		Note:   "paper: near-linear scaling 0.47M->1.5M req/s for 10->40 nodes",
		Header: []string{"nodes", "state(MB)", "tput(req/s)", "p50 lat(ms)", "p95 lat(ms)"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			f0(float64(r.Nodes)), mb(r.StateBytes), f0(r.Throughput),
			ms(r.Latency.P50), ms(r.Latency.P95),
		})
	}
	return rows, table, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
