package experiments

import (
	"math"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/baselines/naiadsim"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/workload"
)

// Fig6Row is one (system, state size) point of the single-node KV sweep.
type Fig6Row struct {
	System     string
	StateBytes int64
	Throughput float64 // requests/s
	P95        time.Duration
	// WorstPause is the longest stop-the-world checkpoint pause observed
	// (Naiad baselines only; zero for SDG, whose dirty-state protocol has
	// no whole-state pause). Unlike throughput ratios, this is driven by
	// the modelled disk bandwidth and is deterministic across machines.
	WorstPause time.Duration
}

// fig6DiskBW is the modelled disk bandwidth; checkpoints of MB-scale state
// take hundreds of ms, matching the paper's GB-scale state on real disks.
const fig6DiskBW = 40 << 20 // 40 MB/s

// fig6Interval is the scaled checkpoint period (paper: 10 s).
const fig6Interval = 300 * time.Millisecond

// fig6Sizes is the default state-size sweep (paper: 0.5-6 GB, scaled).
var fig6Sizes = []int64{1 << 20, 4 << 20, 16 << 20}

// Fig6 reproduces Fig. 6: single-node KV store throughput and latency as
// state grows, SDG vs Naiad-Disk vs Naiad-NoDisk. The paper's shape: SDG is
// largely unaffected by state size; Naiad-Disk collapses; even Naiad-NoDisk
// loses ~63% at the largest state because its stop-the-world checkpoint
// stalls processing.
func Fig6(scale Scale) ([]Fig6Row, *Table, error) {
	return fig6(scale, fig6Sizes)
}

// fig6 runs the sweep over explicit sizes so tests can trim the domain.
// Checkpoint-stall effects only show when the measurement window covers
// several fig6Interval periods; shorter windows yield pure-throughput noise.
func fig6(scale Scale, sizes []int64) ([]Fig6Row, *Table, error) {
	const valueSize = 256
	var rows []Fig6Row

	for _, size := range sizes {
		// --- SDG ---
		cl := cluster.New(0, cluster.Config{DiskWriteBW: fig6DiskBW, DiskReadBW: fig6DiskBW})
		app, err := kv.New(kv.Config{Partitions: 1, Runtime: runtime.Options{
			Cluster:  cl,
			Mode:     checkpoint.ModeAsync,
			Interval: fig6Interval,
		}})
		if err != nil {
			return nil, nil, err
		}
		keys := preloadKV(app, size, valueSize)
		tput, lat := driveKV(app, 0 /* updates */, valueSize, keys, scale)
		rows = append(rows, Fig6Row{System: "SDG", StateBytes: size, Throughput: tput, P95: lat.P95})
		app.Stop()

		// --- Naiad baselines ---
		for _, variant := range []struct {
			name string
			disk *cluster.Disk
		}{
			{"Naiad-Disk", cluster.NewDisk(fig6DiskBW, fig6DiskBW)},
			{"Naiad-NoDisk", nil},
		} {
			tput, p95, pause := runFig6Naiad(variant.disk, size, valueSize, scale)
			rows = append(rows, Fig6Row{System: variant.name, StateBytes: size, Throughput: tput, P95: p95, WorstPause: pause})
		}
	}

	table := &Table{
		Title:  "Fig 6: KV throughput/latency vs state size, single node",
		Note:   "paper: SDG flat; Naiad-Disk collapses; Naiad-NoDisk -63% at max state",
		Header: []string{"state(MB)", "system", "tput(req/s)", "p95 lat(ms)", "worst pause(ms)"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			mb(r.StateBytes), r.System, f0(r.Throughput), ms(r.P95), ms(r.WorstPause),
		})
	}
	return rows, table, nil
}

func runFig6Naiad(disk *cluster.Disk, size int64, valueSize int, scale Scale) (float64, time.Duration, time.Duration) {
	kvm := newPreloadedKVMap(size, valueSize)
	keys := uint64(kvm.NumEntries())
	e := naiadsim.New(naiadsim.Config{
		BatchSize:       500,
		CheckpointEvery: fig6Interval,
		Disk:            disk,
		Apply: func(batch []naiadsim.Item) {
			for _, it := range batch {
				kvm.Put(it.Key, it.Value.([]byte))
			}
		},
		Snapshot: func() []byte { return wholeSnapshot(kvm) },
	})
	defer e.Stop()

	done := make(chan struct{})
	lat := metrics.NewHistogram(0)
	var completed int64
	go func() {
		defer close(done)
		gen := workload.NewKVGen(7, keys, 0, valueSize)
		deadline := time.Now().Add(scale.PointDuration)
		for time.Now().Before(deadline) {
			op := gen.Next()
			start := time.Now()
			if err := e.SubmitSync(naiadsim.Item{Key: op.Key, Value: op.Value}, 30*time.Second); err != nil {
				return
			}
			lat.Record(time.Since(start))
			completed++
		}
	}()
	// Background open-loop writers add throughput pressure like the SDG's
	// concurrent clients.
	stop := make(chan struct{})
	for c := 0; c < scale.Clients-1; c++ {
		go func(c int) {
			gen := workload.NewKVGen(int64(100+c), keys, 0, valueSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				if err := e.Submit(naiadsim.Item{Key: op.Key, Value: op.Value}); err != nil {
					return
				}
			}
		}(c)
	}
	<-done
	close(stop)
	tput := float64(e.Processed()) / scale.PointDuration.Seconds()
	return tput, lat.Percentile(95), e.CheckpointPauses().Max()
}

func newPreloadedKVMap(targetBytes int64, valueSize int) *state.KVMap {
	kvm := state.NewKVMap()
	perEntry := int64(valueSize + 56)
	for key := uint64(0); int64(key) < targetBytes/perEntry; key++ {
		kvm.Put(key, make([]byte, valueSize))
	}
	return kvm
}

// wholeSnapshot serialises a store as one chunk for a stop-the-world
// baseline: a dictionary base stream always yields at least one chunk, and
// an unbounded one exactly one.
func wholeSnapshot(st state.Store) []byte {
	it, err := state.StreamChunks(st, math.MaxInt)
	if err != nil {
		return nil
	}
	c, _, _ := it.Next()
	return c.Data
}
