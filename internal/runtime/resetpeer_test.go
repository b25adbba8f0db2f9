package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
)

// These tests reach into a worker's remoteNet, so they live in the package
// and bring their own copy of the two-stage counter graph (apps/counter
// imports this package): a stateless entry TE on worker 0 forwards every
// item over a partitioned edge to the keyed increment TE, so every lost or
// duplicated edge item shifts a count.
func init() {
	RegisterGraph("resetchain", func() *core.Graph {
		g := core.NewGraph("resetchain")
		counts := g.AddSE("counts", core.KindPartitioned, state.TypeKVMap, nil)
		ingest := g.AddTE("ingest", func(ctx core.Context, it core.Item) {
			ctx.Emit(0, it.Key, it.Value)
		}, nil, true)
		inc := g.AddTE("inc", func(ctx core.Context, it core.Item) {
			kvm := ctx.Store().(state.KV)
			var n uint64
			if v, ok := kvm.Get(it.Key); ok {
				n = binary.BigEndian.Uint64(v)
			}
			kvm.Put(it.Key, binary.BigEndian.AppendUint64(nil, n+1))
		}, &core.Access{SE: counts, Mode: core.AccessByKey}, false)
		g.Connect(ingest, inc, core.DispatchPartitioned)
		return g
	})
}

// handlerRegistry maps fake addresses to in-process handlers, so workers
// can dial each other and a replacement can take over an address.
type handlerRegistry struct {
	mu sync.Mutex
	m  map[string]cluster.Handler
}

func (r *handlerRegistry) set(addr string, h cluster.Handler) {
	r.mu.Lock()
	r.m[addr] = h
	r.mu.Unlock()
}

func (r *handlerRegistry) dial(addr string) (cluster.Transport, error) {
	r.mu.Lock()
	h, ok := r.m[addr]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no worker at %q", addr)
	}
	return cluster.Local(h, 0), nil
}

// setResetHook installs remoteNet.resetHook on a worker's runtime.
func setResetHook(w *Worker, f func()) {
	rt, err := w.runtime()
	if err != nil {
		panic(err)
	}
	rt.net.mu.Lock()
	rt.net.resetHook = f
	rt.net.mu.Unlock()
}

// senderProbe is worker 0's peer dialer in the reset tests. It counts the
// send attempts worker 0's edge sender completes (a failed dial, or one
// frame exchange on a dialled link), can park one dial mid-flight, and
// while down breaks worker 0's links the way a dead peer's TCP connection
// breaks: calls fail at the transport and dials are refused, so the sender
// redials on every attempt.
type senderProbe struct {
	reg      *handlerRegistry
	attempts atomic.Int64
	down     atomic.Bool

	mu      sync.Mutex
	entered chan struct{} // non-nil: the next dial closes it, then waits on release
	release chan struct{}
}

type probedLink struct {
	cluster.Transport
	p *senderProbe
}

func (l probedLink) Call(req []byte) ([]byte, error) {
	defer l.p.attempts.Add(1)
	if l.p.down.Load() {
		return nil, cluster.ErrClientBroken
	}
	return l.Transport.Call(req)
}

func (p *senderProbe) dial(addr string) (cluster.Transport, error) {
	p.mu.Lock()
	entered, release := p.entered, p.release
	p.entered, p.release = nil, nil
	p.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	// Resolved after the park: the dial lands on whoever listens now.
	t, err := p.reg.dial(addr)
	if err == nil && p.down.Load() {
		err = errors.New("connection refused")
	}
	if err != nil {
		p.attempts.Add(1)
		return nil, err
	}
	return probedLink{t, p}, nil
}

// park makes the sender's next dial stop before it connects. entered
// closes once it has; closing release lets it go on.
func (p *senderProbe) park() (entered <-chan struct{}, release chan<- struct{}) {
	e, r := make(chan struct{}), make(chan struct{})
	p.mu.Lock()
	p.entered, p.release = e, r
	p.mu.Unlock()
	return e, r
}

// resetRig is a two-worker resetchain deployment over in-process links
// whose downstream worker (1) has just been crashed with frames in flight:
// phase 1 is checkpointed, phase 2 was delivered to and acked by the old
// worker 1 after the checkpoint (so only worker 0's edge log still has it),
// and phase 3 sits unacked in worker 0's send queue. A correct recovery
// re-sends phase 2 before phase 3; a stale phase-3 queue head reaching the
// restored worker first lifts its dedup watermark past phase 2 for good.
type resetRig struct {
	t     *testing.T
	reg   *handlerRegistry
	probe *senderProbe
	w0    *Worker
	coord *Coordinator
}

const (
	resetKeys     = 20
	resetPerPhase = 300
)

func (rig *resetRig) inject(phase int) {
	rig.t.Helper()
	for i := 0; i < resetPerPhase; i++ {
		if err := rig.coord.Inject("ingest", uint64(i%resetKeys), nil); err != nil {
			rig.t.Fatalf("phase %d inject %d: %v", phase, i, err)
		}
	}
}

func newResetRig(t *testing.T) *resetRig {
	t.Helper()
	reg := &handlerRegistry{m: map[string]cluster.Handler{}}
	probe := &senderProbe{reg: reg}
	w0 := NewWorker()
	t.Cleanup(w0.Close)
	w1 := NewWorker()
	t.Cleanup(w1.Close)
	w0.SetDialer(probe.dial)
	w1.SetDialer(reg.dial)
	var dead1 atomic.Bool
	h1 := w1.Handler()
	wrapped1 := cluster.Handler(func(req []byte) ([]byte, error) {
		if dead1.Load() {
			return nil, errors.New("worker 1 crashed")
		}
		return h1(req)
	})
	reg.set("w0", w0.Handler())
	reg.set("w1", wrapped1)
	ep0 := WorkerEndpoint{Addr: "w0", Data: cluster.Local(w0.Handler(), 0), Control: cluster.Local(w0.Handler(), 0)}
	ep1 := WorkerEndpoint{Addr: "w1", Data: cluster.Local(wrapped1, 0), Control: cluster.Local(wrapped1, 0)}
	failed := make(chan int, 4)
	coord, err := NewCoordinator("resetchain", []WorkerEndpoint{ep0, ep1}, CoordOptions{
		Partitions:        map[string]int{"counts": 2},
		BatchSize:         4,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		OnFailure:         func(w int) { failed <- w },
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	rig := &resetRig{t: t, reg: reg, probe: probe, w0: w0, coord: coord}

	rig.inject(1)
	if !coord.Drain(10 * time.Second) {
		t.Fatal("did not quiesce before the checkpoint")
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rig.inject(2)
	if !coord.Drain(10 * time.Second) {
		t.Fatal("did not quiesce before the crash")
	}

	dead1.Store(true)
	probe.down.Store(true)
	w1.Close()
	ep1.Data.Close()
	ep1.Control.Close()
	rig.inject(3)
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("failure detector never fired")
	}
	return rig
}

// recover brings worker 1 back as a fresh worker listening at addr.
func (rig *resetRig) recover(addr string) {
	t := rig.t
	t.Helper()
	w1b := NewWorker()
	t.Cleanup(w1b.Close)
	w1b.SetDialer(rig.reg.dial)
	rig.reg.set(addr, w1b.Handler())
	rig.probe.down.Store(false)
	ep := WorkerEndpoint{Addr: addr, Data: cluster.Local(w1b.Handler(), 0), Control: cluster.Local(w1b.Handler(), 0)}
	if err := rig.coord.RecoverWorker(1, ep); err != nil {
		t.Fatalf("RecoverWorker: %v", err)
	}
}

// verify checks that every increment of four phases was counted exactly
// once.
func (rig *resetRig) verify() {
	t := rig.t
	t.Helper()
	rig.inject(4)
	if !rig.coord.Drain(15 * time.Second) {
		t.Fatal("deployment did not quiesce after recovery")
	}
	dump, err := rig.coord.DumpKV("counts")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	const want = 4 * resetPerPhase / resetKeys
	for k := uint64(0); k < resetKeys; k++ {
		if len(dump[k]) != 8 {
			t.Errorf("key %d: no count", k)
		} else if n := binary.BigEndian.Uint64(dump[k]); n != want {
			t.Errorf("key %d: count %d, want %d (a stale queue head reached the restored worker)", k, n, want)
		}
	}
}

// TestResetPeerSenderInResetWindow forces the interleaving behind the
// exactly-once violation the end-to-end benchmark found (about one kill in
// 700): worker 0's edge sender runs whole send attempts while ResetPeer is
// between building the rebuilt queue and installing it. ResetPeer used to
// publish the restored worker's address first and swap the queue in a
// second critical section, so an attempt in between paired the new address
// with the old queue's head. Now nothing is visible to the sender until
// address, queue and generation change together, and the attempts made in
// the window still go to the dead worker's address.
func TestResetPeerSenderInResetWindow(t *testing.T) {
	rig := newResetRig(t)
	var ranInWindow atomic.Bool
	setResetHook(rig.w0, func() {
		// Two completed attempts: the first may have begun before the hook.
		from := rig.probe.attempts.Load()
		deadline := time.Now().Add(5 * time.Second)
		for rig.probe.attempts.Load() < from+2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		ranInWindow.Store(rig.probe.attempts.Load() >= from+2)
	})
	rig.recover("w1b")
	setResetHook(rig.w0, nil)
	if !ranInWindow.Load() {
		t.Fatal("the sender made no attempt inside the reset window; the test proved nothing")
	}
	rig.verify()
}

// TestResetPeerDialStraddlesReset covers the sender's other unlocked
// stretch: it picked the queue head, started dialling, and the whole reset
// happened before the dial returned. The replacement listens on the same
// address, so the address check alone cannot tell; the sender must notice
// the queue generation moved and drop the head it is holding.
func TestResetPeerDialStraddlesReset(t *testing.T) {
	rig := newResetRig(t)
	entered, release := rig.probe.park()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the sender never dialled")
	}
	rig.recover("w1")
	close(release)
	rig.verify()
}
