package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

type wirePayload struct {
	N int
	S string
}

const wirePayloadTag = 102

func (wirePayload) FlatTag() uint64 { return wirePayloadTag }

func (p wirePayload) AppendFlat(e *flat.Encoder) error {
	e.Varint(int64(p.N))
	e.Str(p.S)
	return nil
}

func init() {
	flat.RegisterPayload(wirePayloadTag, func(d *flat.Decoder) any {
		return wirePayload{N: int(d.Varint()), S: d.Str()}
	})
}

func TestWireRoundTrip(t *testing.T) {
	got, err := flat.RoundTripValue(wirePayload{N: 7, S: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := got.(wirePayload); !ok || p.N != 7 || p.S != "x" {
		t.Fatalf("round trip = %#v", got)
	}
	if _, err := flat.RoundTripValue(make(chan int)); err == nil {
		t.Fatal("channels must fail the wire check")
	}
	type noCodec struct{ N int }
	if _, err := flat.RoundTripValue(noCodec{N: 1}); err == nil {
		t.Fatal("a struct without a codec must fail the wire check")
	}
}

// TestWireRoundTripAllocs pins the deep-copy cost on the WireCheck path:
// the flat codec round-trips a []byte payload in three allocations (input
// boxing, the copied value, result boxing), where a reflective
// encoder+decoder pair cost hundreds. A regression here makes WireCheck
// deployments unusable for perf comparisons.
func TestWireRoundTripAllocs(t *testing.T) {
	v := []byte("some payload bytes")
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := flat.RoundTripValue(v); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("RoundTripValue([]byte) = %.1f allocs/op, want <= 3", allocs)
	}
}

func TestWireCheckEndToEnd(t *testing.T) {
	// The KV graph runs correctly with every payload forced through the
	// flat codec, proving it satisfies location independence.
	r, err := Deploy(kvGraph(), Options{
		Partitions: map[string]int{"store": 2},
		WireCheck:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < 50; k++ {
		if _, err := r.Call("put", k, []byte(fmt.Sprintf("v%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 50; k++ {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil || got == nil {
			t.Fatalf("get %d = %v, %v", k, got, err)
		}
		if want := fmt.Sprintf("v%d", k); string(got.([]byte)) != want {
			t.Fatalf("get %d = %q", k, got)
		}
	}
}

func TestCyclicGraphIterates(t *testing.T) {
	// §3.1: "cycles specify iterative computation". An iterative refinement
	// loop: the refine TE halves a value and feeds it back to itself until
	// it drops below a threshold, then reports the iteration count.
	type iterMsg struct {
		Value float64
		Round int
	}
	g := core.NewGraph("iter")
	acc := g.AddSE("acc", core.KindPartitioned, state.TypeKVMap, nil)
	refine := g.AddTE("refine", func(ctx core.Context, it core.Item) {
		m := it.Value.(iterMsg)
		kv := ctx.Store().(*state.KVMap)
		kv.Put(it.Key, []byte{byte(m.Round)}) // latest round per key
		if m.Value > 1.0 {
			// Loop back: same key, so the same partition refines again.
			ctx.EmitReq(0, it.Key, iterMsg{Value: m.Value / 2, Round: m.Round + 1})
			return
		}
		ctx.Reply(m.Round)
	}, &core.Access{SE: acc, Mode: core.AccessByKey}, true)
	g.Connect(refine, refine, core.DispatchPartitioned) // the cycle

	if !g.HasCycle() {
		t.Fatal("cycle not detected")
	}
	r, err := Deploy(g, Options{Partitions: map[string]int{"acc": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	got, err := r.Call("refine", 5, iterMsg{Value: 64, Round: 0}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// 64 -> 32 -> 16 -> 8 -> 4 -> 2 -> 1: six halvings.
	if got.(int) != 6 {
		t.Fatalf("converged after %v rounds, want 6", got)
	}
	// State records the final round on the key's partition.
	stats := r.Stats()
	if stats.SEs[0].Entries != 1 {
		t.Fatalf("entries = %d", stats.SEs[0].Entries)
	}
}

func TestDoubleFailureRecovery(t *testing.T) {
	// Two successive kill/recover cycles: the second failure must restore
	// from the epoch taken after the first recovery.
	r, err := Deploy(kvGraph(), Options{
		Mode:     1, // checkpoint.ModeAsync
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < 30; k++ {
		if _, err := r.Call("put", k, []byte{1, byte(k)}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	kill := func() {
		node := r.Stats().SEs[0].Nodes[0]
		r.KillNode(node)
	}
	kill()
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	r.Drain(testTimeout)
	// More writes, second checkpoint, second failure.
	for k := uint64(30); k < 60; k++ {
		if _, err := r.Call("put", k, []byte{2, byte(k)}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	kill()
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	r.Drain(testTimeout)
	for k := uint64(0); k < 60; k++ {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil || got == nil {
			t.Fatalf("get %d after double failure: %v %v", k, got, err)
		}
	}
}

func TestKillDuringCheckpointThenRecover(t *testing.T) {
	// A node failing mid-checkpoint must recover from the previous epoch.
	cl := newSlowCluster(2 << 20)
	r, err := Deploy(kvGraph(), Options{
		Cluster:  cl,
		Mode:     1, // async
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < 2000; k++ {
		if _, err := r.Call("put", k, make([]byte, 128), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1 commits fully.
	if _, err := r.CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 starts on the slow disks; kill the node while it is in
	// flight.
	done := make(chan error, 1)
	go func() {
		_, err := r.CheckpointNow("store", 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	node := r.Stats().SEs[0].Nodes[0]
	r.KillNode(node)
	<-done // epoch 2 may succeed or fail; either way recovery must work
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	if !r.Drain(30 * time.Second) {
		t.Fatal("drain")
	}
	for k := uint64(0); k < 2000; k += 100 {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil || got == nil {
			t.Fatalf("get %d after mid-checkpoint failure: %v %v", k, got, err)
		}
	}
}
