package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire"
)

// The kvops graph is the kv store with one entry TE for every mutation, so
// puts, deletes and partition-wide clears of one partition are applied in
// injection order and a plain map is an exact reference. kvops-sharded4 is
// the same graph with each partition backed by a 4-stripe KVMap.
func init() {
	RegisterGraph("kvops", func() *core.Graph { return kvopsGraph("kvops", nil) })
	RegisterGraph("kvops-sharded4", func() *core.Graph {
		return kvopsGraph("kvops-sharded4", func() state.Store { return state.NewShardedKVMap(4) })
	})
}

func kvopsGraph(name string, build func() state.Store) *core.Graph {
	g := core.NewGraph(name)
	store := g.AddSE("store", core.KindPartitioned, state.TypeKVMap, build)
	g.AddTE("op", func(ctx core.Context, it core.Item) {
		kvm := ctx.Store().(state.KV)
		switch v := it.Value.([]byte); v[0] {
		case 'P':
			kvm.Put(it.Key, append([]byte(nil), v[1:]...))
		case 'D':
			kvm.Delete(it.Key)
		case 'C':
			kvm.Clear()
		}
	}, &core.Access{SE: store, Mode: core.AccessByKey}, true)
	return g
}

// seenPart is one SE part a pull served.
type seenPart struct {
	worker int
	index  int // worker-local SE instance
	delta  bool
	bytes  int // part payload
}

// pullLog records, per Checkpoint, what crossed the control links of a
// chain deployment: the SnapBegin requests and the SE parts served.
type pullLog struct {
	mu     sync.Mutex
	begins map[int]wire.SnapBegin // by worker, last pull
	parts  []seenPart
	// dropEnd makes worker dropEndOf's next SnapEnd reply vanish: the
	// worker served the whole epoch, the coordinator never learns it.
	dropEnd   bool
	dropEndOf int
}

func (l *pullLog) reset() {
	l.mu.Lock()
	l.begins, l.parts = map[int]wire.SnapBegin{}, nil
	l.mu.Unlock()
}

// ctrlLink is a worker's control transport under observation.
type ctrlLink struct {
	cluster.Transport
	worker int
	log    *pullLog
}

func (c ctrlLink) Call(req []byte) ([]byte, error) {
	if len(req) > 0 && req[0] == wire.MsgSnapBegin {
		var m wire.SnapBegin
		if wire.Expect(req, wire.MsgSnapBegin, &m) == nil {
			c.log.mu.Lock()
			c.log.begins[c.worker] = m
			c.log.mu.Unlock()
		}
	}
	resp, err := c.Transport.Call(req)
	if err != nil || len(resp) == 0 {
		return resp, err
	}
	switch resp[0] {
	case wire.MsgSnapChunk:
		var ck wire.SnapChunk
		if wire.Expect(resp, wire.MsgSnapChunk, &ck) == nil && ck.Part.Kind == wire.PartSE {
			c.log.mu.Lock()
			c.log.parts = append(c.log.parts, seenPart{c.worker, ck.Part.Index, ck.Part.Delta, len(ck.Part.Data)})
			c.log.mu.Unlock()
		}
	case wire.MsgSnapEnd:
		c.log.mu.Lock()
		drop := c.log.dropEnd && c.log.dropEndOf == c.worker
		if drop {
			c.log.dropEnd = false
		}
		c.log.mu.Unlock()
		if drop {
			// An application-level error: the link stays up and the worker
			// is not declared dead, it just never hears that its epoch was
			// lost.
			return nil, &cluster.RemoteError{Msg: "reply lost"}
		}
	}
	return resp, err
}

// chainRig is a kvops deployment over in-process workers with every control
// link observed, plus the reference map the store must equal.
type chainRig struct {
	t       *testing.T
	coord   *Coordinator
	workers []*Worker
	eps     []WorkerEndpoint
	parts   int // global partitions
	log     *pullLog
	ref     map[uint64][]byte
	rng     *rand.Rand
	failed  chan int
}

const chainChunkBytes = 1024

func newChainRig(t *testing.T, workers, kvShards int, seed int64) *chainRig {
	t.Helper()
	rig := &chainRig{t: t, parts: 2 * workers, log: &pullLog{}, ref: map[uint64][]byte{},
		rng: rand.New(rand.NewSource(seed)), failed: make(chan int, 8)}
	rig.log.reset()
	for w := 0; w < workers; w++ {
		wk, ep := rig.spawn(w)
		rig.workers = append(rig.workers, wk)
		rig.eps = append(rig.eps, ep)
	}
	graph := "kvops"
	if kvShards > 0 {
		graph = fmt.Sprintf("kvops-sharded%d", kvShards)
	}
	coord, err := NewCoordinator(graph, rig.eps, CoordOptions{
		Partitions:        map[string]int{"store": rig.parts},
		SnapChunkBytes:    chainChunkBytes,
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

func (rig *chainRig) spawn(w int) (*Worker, WorkerEndpoint) {
	wk := NewWorker()
	rig.t.Cleanup(wk.Close)
	return wk, WorkerEndpoint{
		Data:    cluster.Local(wk.Handler(), 0),
		Control: ctrlLink{cluster.Local(wk.Handler(), 0), w, rig.log},
	}
}

func (rig *chainRig) send(key uint64, op []byte) {
	rig.t.Helper()
	if err := rig.coord.Inject("op", key, op); err != nil {
		rig.t.Fatalf("inject: %v", err)
	}
}

func (rig *chainRig) put(key uint64) {
	val := make([]byte, 24+rig.rng.Intn(16)) // random: flate cannot shrink it
	rig.rng.Read(val)
	rig.send(key, append([]byte{'P'}, val...))
	rig.ref[key] = val
}

func (rig *chainRig) del(key uint64) {
	rig.send(key, []byte{'D'})
	delete(rig.ref, key)
}

// clear empties the partition key routes to.
func (rig *chainRig) clear(key uint64) {
	rig.send(key, []byte{'C'})
	p := state.PartitionKey(key, rig.parts)
	for k := range rig.ref {
		if state.PartitionKey(k, rig.parts) == p {
			delete(rig.ref, k)
		}
	}
}

// keysOf lists n keys of one global partition, lowest first.
func (rig *chainRig) keysOf(part, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if state.PartitionKey(k, rig.parts) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// churn applies n random puts and deletes over keys [0, space).
func (rig *chainRig) churn(n, space int) {
	for i := 0; i < n; i++ {
		k := uint64(rig.rng.Intn(space))
		if rig.rng.Intn(4) == 0 {
			rig.del(k)
		} else {
			rig.put(k)
		}
	}
}

// checkpoint drains, checkpoints and returns what the pulls served.
func (rig *chainRig) checkpoint() []seenPart {
	rig.t.Helper()
	if !rig.coord.Drain(15 * time.Second) {
		rig.t.Fatal("did not quiesce before the checkpoint")
	}
	rig.log.reset()
	if err := rig.coord.Checkpoint(); err != nil {
		rig.t.Fatalf("checkpoint: %v", err)
	}
	rig.log.mu.Lock()
	defer rig.log.mu.Unlock()
	for _, p := range rig.log.parts {
		// One entry is at most a 10-byte key, a length and a 40-byte value.
		if p.bytes > chainChunkBytes+64 {
			rig.t.Fatalf("worker %d SE %d served a %d-byte part (delta=%v), bound %d + one entry",
				p.worker, p.index, p.bytes, p.delta, chainChunkBytes)
		}
	}
	return append([]seenPart(nil), rig.log.parts...)
}

// shape folds served parts into "which instances sent a base, which a delta".
func shape(parts []seenPart) (bases, deltas map[[2]int]bool) {
	bases, deltas = map[[2]int]bool{}, map[[2]int]bool{}
	for _, p := range parts {
		if p.delta {
			deltas[[2]int{p.worker, p.index}] = true
		} else {
			bases[[2]int{p.worker, p.index}] = true
		}
	}
	return bases, deltas
}

// kill crashes worker w and waits for the failure detector.
func (rig *chainRig) kill(w int) {
	rig.t.Helper()
	rig.workers[w].Close()
	rig.eps[w].Data.Close()
	rig.eps[w].Control.Close()
	select {
	case got := <-rig.failed:
		if got != w {
			rig.t.Fatalf("failure detector blamed worker %d, want %d", got, w)
		}
	case <-time.After(5 * time.Second):
		rig.t.Fatal("failure detector never fired")
	}
}

// recover replaces dead worker w with a fresh one and checks the store.
func (rig *chainRig) recoverAndVerify(w int) {
	rig.t.Helper()
	wk, ep := rig.spawn(w)
	rig.workers[w], rig.eps[w] = wk, ep
	if err := rig.coord.RecoverWorker(w, ep); err != nil {
		rig.t.Fatalf("RecoverWorker: %v", err)
	}
	rig.verify()
}

func (rig *chainRig) verify() {
	rig.t.Helper()
	if !rig.coord.Drain(15 * time.Second) {
		rig.t.Fatal("did not quiesce")
	}
	got, err := rig.coord.DumpKV("store")
	if err != nil {
		rig.t.Fatalf("dump: %v", err)
	}
	for k, v := range rig.ref {
		if !bytes.Equal(got[k], v) {
			rig.t.Fatalf("key %d: %x, want %x (lost or stale)", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := rig.ref[k]; !ok {
			rig.t.Fatalf("key %d is present, the reference deleted it (resurrected)", k)
		}
	}
}

// TestSnapshotChainEquivalence drives seeded put/delete/clear traffic
// through a sequence of checkpoints that takes every path of the
// distributed chain — first base, deltas, the "a delta would not be
// smaller" base of one instance, the coordinator's ratio-triggered fold,
// the empty base after a clear, a restore of base+deltas, the all-base
// epoch after a restore — and requires the recovered store to equal the
// reference map, on both dictionary backends and with one and two workers.
func TestSnapshotChainEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, kvShards := range []int{0, 4} {
			t.Run(fmt.Sprintf("workers=%d/kvshards=%d", workers, kvShards), func(t *testing.T) {
				rig := newChainRig(t, workers, kvShards, int64(10*workers+kvShards))
				const space = 800
				last := workers - 1
				for k := uint64(0); k < space; k++ {
					rig.put(k)
				}

				// Epoch 1: nothing is retained yet, so everything is a base.
				bases, deltas := shape(rig.checkpoint())
				if len(bases) != rig.parts || len(deltas) != 0 {
					t.Fatalf("first epoch: %d base / %d delta instance(s), want %d / 0", len(bases), len(deltas), rig.parts)
				}

				// Epochs 2-3: light churn ships as deltas only.
				for e := 2; e <= 3; e++ {
					rig.churn(40, space)
					bases, deltas = shape(rig.checkpoint())
					if len(bases) != 0 || len(deltas) == 0 {
						t.Fatalf("epoch %d: %d base / %d delta instance(s), want deltas only", e, len(bases), len(deltas))
					}
				}

				// Epoch 4: rewriting most of one partition makes a delta of it
				// no smaller than its base; that instance alone sends a base.
				hot := rig.parts - 1 // owned by the last worker, its local instance 1
				for _, k := range rig.keysOf(hot, space/rig.parts*6/10) {
					rig.put(k)
				}
				bases, _ = shape(rig.checkpoint())
				if len(bases) != 1 || !bases[[2]int{last, 1}] {
					t.Fatalf("epoch 4: bases %v, want only worker %d instance 1", bases, last)
				}

				// Epochs 5+: a third of the keys per epoch stays under the
				// half-the-keys rule, so every instance ships deltas. Once an
				// instance's retained deltas pass half its base bytes, the
				// coordinator folds its chain into a new base itself: no
				// chained instance ships a base for it.
				folded := false
				for e := 5; e <= 9 && !folded; e++ {
					for i := 0; i < space/3; i++ {
						rig.put(uint64(rig.rng.Intn(space)))
					}
					bases, deltas = shape(rig.checkpoint())
					if len(bases) != 0 {
						t.Fatalf("epoch %d: chained instances shipped bases %v", e, bases)
					}
					if !rig.coord.awaitFolds(10 * time.Second) {
						t.Fatalf("epoch %d: a chain that outgrew its base was never folded", e)
					}
					for inst, n := range rig.coord.chainLens() {
						folded = folded || deltas[inst] && n == 1
					}
				}
				if !folded {
					t.Fatal("retained deltas never triggered a fold")
				}

				// A cleared partition ships an empty base, which must drop
				// everything retained for it; then it refills a little.
				rig.clear(rig.keysOf(0, 1)[0])
				bases, deltas = shape(rig.checkpoint())
				if !bases[[2]int{0, 0}] || deltas[[2]int{0, 0}] {
					t.Fatalf("cleared partition did not send an (empty) base: bases %v deltas %v", bases, deltas)
				}
				for _, k := range rig.keysOf(0, 5) {
					rig.put(k)
				}
				rig.churn(30, space)
				rig.checkpoint()

				// Not covered by any checkpoint: comes back through the
				// coordinator's replay log.
				rig.churn(60, space)
				rig.kill(last)
				rig.churn(20, space) // queued for the dead worker
				rig.recoverAndVerify(last)

				// The restored worker holds nothing the coordinator could
				// extend: its next epoch is all bases, everyone else's deltas.
				rig.churn(40, space)
				bases, deltas = shape(rig.checkpoint())
				for inst := 0; inst < 2; inst++ {
					if !bases[[2]int{last, inst}] {
						t.Fatalf("restored worker %d instance %d did not send a base: %v", last, inst, bases)
					}
				}
				// (Worker 0's instance 0 is the cleared partition, still so
				// small that any churn rewrites most of it.)
				if workers == 2 && bases[[2]int{0, 1}] {
					t.Fatalf("surviving worker 0 sent a base of an instance it has a chain for: %v", bases)
				}
				rig.churn(40, space)
				rig.checkpoint()
				rig.churn(40, space)
				rig.kill(0)
				rig.recoverAndVerify(0)
			})
		}
	}
}

// TestSnapshotChainAbort loses the reply to a pull's very last request: the
// worker served every chunk of the epoch and cut its changed-key tracker,
// the coordinator retained nothing. The next checkpoint must ship those
// keys again — they are in no replay log either once it succeeds — and
// recovery must equal the reference.
func TestSnapshotChainAbort(t *testing.T) {
	rig := newChainRig(t, 1, 0, 7)
	const space = 400
	for k := uint64(0); k < space; k++ {
		rig.put(k)
	}
	rig.checkpoint()

	rig.churn(50, space) // the epoch that gets lost
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("did not quiesce")
	}
	rig.log.mu.Lock()
	rig.log.dropEnd, rig.log.dropEndOf = true, 0
	rig.log.mu.Unlock()
	err := rig.coord.Checkpoint()
	if !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("checkpoint with a lost SnapEnd: err = %v, want the remote error", err)
	}
	if !rig.coord.WorkerAlive(0) {
		t.Fatal("a lost reply must not kill the worker")
	}

	rig.churn(50, space)
	bases, deltas := shape(rig.checkpoint())
	if len(bases) != 0 || len(deltas) == 0 {
		t.Fatalf("epoch after the lost one: %d base / %d delta instance(s), want deltas only", len(bases), len(deltas))
	}
	if rig.log.begins[0].Have == 0 {
		t.Fatal("the coordinator forgot the epoch it does retain")
	}
	// The replay log is trimmed to the lower of the two instances'
	// watermarks, so a tail of the last churn may remain; anything longer
	// would reach back into the lost epoch and make the chain not its only
	// copy.
	if n := rig.coord.PendingReplay("op", 0); n > 50 {
		t.Fatalf("replay log still holds %d item(s): the lost epoch's keys are not only in the chain, the test proves nothing", n)
	}
	rig.kill(0)
	rig.recoverAndVerify(0)
}

// TestSnapshotChainPerInstanceGC: retention is garbage-collected per SE
// instance. One key is deleted under a delta, a second in the very epoch
// its instance — and only its instance — rebases, so nothing retained says
// the second key is gone except its absence from the new base. Both must
// stay deleted: the coordinator has to drop that instance's old base and
// delta (a restore would merge the stale base back in under the new one)
// while keeping the other instance's chain whole.
func TestSnapshotChainPerInstanceGC(t *testing.T) {
	rig := newChainRig(t, 1, 0, 3)
	const space = 400
	for k := uint64(0); k < space; k++ {
		rig.put(k)
	}
	rig.checkpoint()

	hot := rig.keysOf(1, space/2*6/10)
	rig.del(hot[0])
	_, deltas := shape(rig.checkpoint())
	if !deltas[[2]int{0, 1}] {
		t.Fatalf("the delete did not ship as a delta of instance 1: %v", deltas)
	}

	// Rewrite most of partition 1: instance 1 rebases, instance 0 does not.
	rig.del(hot[1])
	for _, k := range hot[2:] {
		rig.put(k)
	}
	// One last item through instance 0 lifts its watermark past the
	// deletes, so the checkpoint trims them out of the replay log and the
	// retained chain is all that remembers them.
	rig.put(rig.keysOf(0, 1)[0])
	bases, deltas := shape(rig.checkpoint())
	if len(bases) != 1 || !bases[[2]int{0, 1}] || !deltas[[2]int{0, 0}] {
		t.Fatalf("bases %v deltas %v, want a base of instance 1 and a delta of instance 0", bases, deltas)
	}
	if n := rig.coord.PendingReplay("op", 0); n > 1 {
		t.Fatalf("replay log still holds %d item(s)", n)
	}
	rig.kill(0)
	rig.recoverAndVerify(0)
}

// TestSnapshotChainFoldInFlight folds a chain while, in turn, its worker
// dies and recovers, the chain gains a delta, and a recovered worker ships
// a fresh base and then deltas on it. A fold must keep a delta appended
// behind it and must be dropped under a new base however long the new
// chain grew, and restores before and after the swap must equal the
// reference.
func TestSnapshotChainFoldInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kill    bool // kill and recover the worker during the fold
		ckpts   int  // then checkpoint this often
		swapped bool
	}{
		{"recover", true, 0, true},
		{"delta", false, 1, true},
		{"base", true, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newChainRig(t, 1, 0, 11)
			const space = 400
			for k := uint64(0); k < space; k++ {
				rig.put(k)
			}
			rig.checkpoint()
			rig.churn(40, space)
			rig.checkpoint()

			found, swapped := rig.coord.foldDuring(0, func() {
				rig.churn(30, space)
				if tc.kill {
					rig.kill(0)
					rig.recoverAndVerify(0)
				}
				for i := 0; i < tc.ckpts; i++ {
					// A live worker ships a delta; a restored one all bases
					// first.
					rig.churn(30, space)
					rig.checkpoint()
				}
			})
			if !found {
				t.Fatal("no chain with deltas to fold")
			}
			if swapped != tc.swapped {
				t.Fatalf("fold swapped = %v, want %v", swapped, tc.swapped)
			}
			rig.churn(30, space)
			rig.kill(0)
			rig.recoverAndVerify(0)
		})
	}
}

// TestCoordinatorGoroutinesReturnToBaseline: a deployment that checkpoints
// until its chains fold, then closes, leaves no goroutine behind — not the
// heartbeats, not the compactor, not the workers'.
func TestCoordinatorGoroutinesReturnToBaseline(t *testing.T) {
	before := goruntime.NumGoroutine()
	rig := newChainRig(t, 2, 0, 13)
	const space = 400
	for k := uint64(0); k < space; k++ {
		rig.put(k)
	}
	rig.checkpoint()
	folded := false
	for e := 0; e < 8 && !folded; e++ {
		for i := 0; i < space/3; i++ {
			rig.put(uint64(rig.rng.Intn(space)))
		}
		rig.checkpoint()
		if !rig.coord.awaitFolds(10 * time.Second) {
			t.Fatal("a chain that outgrew its base was never folded")
		}
		for _, n := range rig.coord.chainLens() {
			folded = folded || n == 1
		}
	}
	if !folded {
		t.Fatal("no checkpoint triggered a fold")
	}
	rig.coord.Close()
	for _, wk := range rig.workers {
		wk.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before deploy:\n%s",
				goruntime.NumGoroutine(), before, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
