package runtime_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// jitterLink delays every call on a worker's data link by a seeded 0–200 µs
// while the coordinator holds that worker's send lock, widening the window
// in which a send could overtake another. Once crashed, it answers nothing,
// as a killed process would: even a request the handler completed fails as
// a broken link.
type jitterLink struct {
	cluster.Transport
	crashed atomic.Bool
	mu      sync.Mutex
	rng     *rand.Rand
}

func (l *jitterLink) Call(req []byte) ([]byte, error) {
	l.mu.Lock()
	d := time.Duration(l.rng.Intn(201)) * time.Microsecond
	l.mu.Unlock()
	time.Sleep(d)
	resp, err := l.Transport.Call(req)
	if l.crashed.Load() {
		return nil, cluster.ErrClientBroken
	}
	return resp, err
}

// sendRig is a two-worker deployment on in-process transports whose data
// links jitter.
type sendRig struct {
	t       *testing.T
	seed    int64
	coord   *runtime.Coordinator
	workers []*runtime.Worker
	eps     []runtime.WorkerEndpoint
	failed  chan int
}

func newSendRig(t *testing.T, graph string, parts map[string]int, seed int64) *sendRig {
	t.Helper()
	rig := &sendRig{t: t, seed: seed, failed: make(chan int, 2)}
	for w := 0; w < 2; w++ {
		wk, ep := rig.spawn(w)
		rig.workers = append(rig.workers, wk)
		rig.eps = append(rig.eps, ep)
	}
	coord, err := runtime.NewCoordinator(graph, rig.eps, runtime.CoordOptions{
		Partitions:        parts,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		OnFailure:         func(w int) { rig.failed <- w },
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	rig.coord = coord
	return rig
}

func (rig *sendRig) spawn(w int) (*runtime.Worker, runtime.WorkerEndpoint) {
	wk := runtime.NewWorker()
	rig.t.Cleanup(wk.Close)
	rig.seed++
	return wk, runtime.WorkerEndpoint{
		Data:    &jitterLink{Transport: cluster.Local(wk.Handler(), 0), rng: rand.New(rand.NewSource(rig.seed))},
		Control: cluster.Local(wk.Handler(), 0),
	}
}

// killAndRecover crashes worker w, waits for the failure detector and recovers the
// slot on a fresh worker.
func (rig *sendRig) killAndRecover(w int) {
	rig.t.Helper()
	rig.eps[w].Data.(*jitterLink).crashed.Store(true)
	rig.eps[w].Data.Close()
	rig.eps[w].Control.Close()
	rig.workers[w].Close()
	select {
	case got := <-rig.failed:
		if got != w {
			rig.t.Fatalf("failure detector blamed worker %d, want %d", got, w)
		}
	case <-time.After(5 * time.Second):
		rig.t.Fatal("failure detector never fired")
	}
	rig.workers[w], rig.eps[w] = rig.spawn(w)
	if err := rig.coord.RecoverWorker(w, rig.eps[w]); err != nil {
		rig.t.Fatalf("RecoverWorker: %v", err)
	}
}

// TestCoordinatorConcurrentSends drives one coordinator from several
// goroutines at once. Each worker's send lock must keep the seqs reaching
// that worker increasing: a seq that overtook an earlier one onto a worker
// would make the earlier item look like a duplicate to the instance's dedup
// watermark, and it would be dropped.
func TestCoordinatorConcurrentSends(t *testing.T) {
	const senders = 4
	const keysPerClass = 8
	// classKey is key j of sender g's key class: no two senders share a key,
	// so each sender alone knows its keys' current values.
	classKey := func(g, j int) uint64 { return uint64(g + senders*j) }

	t.Run("kv", func(t *testing.T) {
		rig := newSendRig(t, "kv", map[string]int{"store": 2}, 1)
		const ops = 150
		oracles := make([]map[uint64][]byte, senders)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			cur := map[uint64][]byte{}
			oracles[g] = cur
			rng := rand.New(rand.NewSource(int64(100 + g)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					k := classKey(g, rng.Intn(keysPerClass))
					if rng.Intn(3) > 0 {
						v := []byte(fmt.Sprintf("k%d@%d", k, i))
						if _, err := rig.coord.Call("put", k, v, 2*time.Second); err != nil {
							t.Errorf("sender %d op %d: put(%d): %v", g, i, k, err)
							return
						}
						cur[k] = v
						continue
					}
					got, err := rig.coord.Call("get", k, nil, 2*time.Second)
					if err != nil {
						t.Errorf("sender %d op %d: get(%d): %v", g, i, k, err)
						return
					}
					if b, _ := got.([]byte); !bytes.Equal(b, cur[k]) {
						t.Errorf("sender %d op %d: get(%d) = %q, want %q", g, i, k, b, cur[k])
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if !rig.coord.Drain(15 * time.Second) {
			t.Fatal("did not quiesce")
		}
		dump, err := rig.coord.DumpKV("store")
		if err != nil {
			t.Fatalf("dump: %v", err)
		}
		want := 0
		for _, cur := range oracles {
			want += len(cur)
			for k, v := range cur {
				if !bytes.Equal(dump[k], v) {
					t.Errorf("key %d: %q, want %q", k, dump[k], v)
				}
			}
		}
		if len(dump) != want {
			t.Errorf("store holds %d keys, want %d", len(dump), want)
		}
	})

	t.Run("counter", func(t *testing.T) {
		rig := newSendRig(t, "counter", map[string]int{"counts": 2}, 2)
		const batches, batchLen = 120, 8
		killAt := make(chan struct{})
		var sent atomic.Int64
		counts := make([]map[uint64]uint64, senders)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			tally := map[uint64]uint64{}
			counts[g] = tally
			rng := rand.New(rand.NewSource(int64(200 + g)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					items := make([]runtime.InjectItem, batchLen)
					for i := range items {
						items[i].Key = classKey(g, rng.Intn(keysPerClass))
					}
					if err := rig.coord.InjectBatch("inc", items); err != nil {
						t.Errorf("sender %d batch %d: %v", g, b, err)
						return
					}
					for _, it := range items {
						tally[it.Key]++
					}
					if sent.Add(1) == senders*batches/3 {
						close(killAt)
					}
				}
			}()
		}
		stop := make(chan struct{})
		var ckpts atomic.Int64
		ckptDone := make(chan struct{})
		go func() {
			defer close(ckptDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A round that races the crash fails; the chain it would
				// have extended stays as it was.
				if rig.coord.Checkpoint() == nil {
					ckpts.Add(1)
				}
			}
		}()
		select {
		case <-killAt:
			rig.killAndRecover(1)
		case <-time.After(30 * time.Second):
			t.Error("senders stalled before the crash point")
		}
		wg.Wait()
		close(stop)
		<-ckptDone
		if t.Failed() {
			return
		}
		if ckpts.Load() == 0 {
			t.Fatal("no checkpoint round succeeded alongside the senders")
		}
		if !rig.coord.Drain(15 * time.Second) {
			t.Fatal("did not quiesce")
		}
		dump, err := rig.coord.DumpKV("counts")
		if err != nil {
			t.Fatalf("dump: %v", err)
		}
		for _, tally := range counts {
			for k, want := range tally {
				if got := counter.Count(dump[k]); got != want {
					t.Errorf("key %d: count %d, want %d", k, got, want)
				}
			}
		}
	})
}
