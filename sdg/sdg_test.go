package sdg_test

import (
	"strings"
	"testing"
	"time"

	"repro/sdg"
)

const timeout = 5 * time.Second

func buildKV(t *testing.T) *sdg.GraphBuilder {
	t.Helper()
	b := sdg.NewGraph("kv")
	store := b.PartitionedState("store", sdg.StoreKVMap)
	b.Task("put", func(ctx sdg.Context, it sdg.Item) {
		ctx.Store().(sdg.KV).Put(it.Key, it.Value.([]byte))
		ctx.Reply(true)
	}, sdg.TaskOptions{Entry: true, ByKeyState: sdg.Ref(store)})
	b.Task("get", func(ctx sdg.Context, it sdg.Item) {
		if v, ok := ctx.Store().(sdg.KV).Get(it.Key); ok {
			ctx.Reply(v)
			return
		}
		ctx.Reply(nil)
	}, sdg.TaskOptions{Entry: true, ByKeyState: sdg.Ref(store)})
	return b
}

func TestBuildValidateDeploy(t *testing.T) {
	b := buildKV(t)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Dot(), "store") {
		t.Error("dot output missing state")
	}
	sys, err := b.Deploy(sdg.Options{Partitions: map[string]int{"store": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if _, err := sys.Call("put", 7, []byte("x"), timeout); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Call("get", 7, nil, timeout)
	if err != nil || string(v.([]byte)) != "x" {
		t.Fatalf("get = %v, %v", v, err)
	}
	st := sys.Stats()
	if len(st.SEs) != 1 || st.SEs[0].Instances != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if sys.CallLatency().Count() != 2 {
		t.Error("latency histogram should have 2 samples")
	}
}

func TestPartialMergeFlow(t *testing.T) {
	b := sdg.NewGraph("partial")
	acc := b.PartialState("acc", sdg.StoreKVMap)
	b.Task("upd", func(ctx sdg.Context, it sdg.Item) {
		m := ctx.Store().(*sdg.KVMap)
		var n uint64
		if v, ok := m.Get(0); ok {
			n = uint64(v[0])
		}
		m.Put(0, []byte{byte(n + 1)})
	}, sdg.TaskOptions{Entry: true, LocalState: sdg.Ref(acc)})
	ask := b.Task("ask", func(ctx sdg.Context, it sdg.Item) {
		ctx.EmitReq(0, 0, nil)
	}, sdg.TaskOptions{Entry: true})
	read := b.Task("read", func(ctx sdg.Context, it sdg.Item) {
		m := ctx.Store().(*sdg.KVMap)
		var n uint64
		if v, ok := m.Get(0); ok {
			n = uint64(v[0])
		}
		ctx.EmitReq(0, 0, n)
	}, sdg.TaskOptions{GlobalState: sdg.Ref(acc)})
	merge := b.Task("merge", func(ctx sdg.Context, it sdg.Item) {
		var total uint64
		for _, v := range it.Value.(sdg.Collection) {
			total += v.(uint64)
		}
		ctx.Reply(total)
	}, sdg.TaskOptions{})
	b.Connect(ask, read, sdg.OneToAll)
	b.Connect(read, merge, sdg.AllToOne)

	sys, err := b.Deploy(sdg.Options{Partitions: map[string]int{"acc": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	for i := 0; i < 10; i++ {
		if err := sys.Inject("upd", uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.Drain(timeout) {
		t.Fatal("drain")
	}
	got, err := sys.Call("ask", 0, nil, timeout)
	if err != nil {
		t.Fatal(err)
	}
	if got.(uint64) != 10 {
		t.Fatalf("merged total = %d, want 10", got)
	}
}

func TestFaultToleranceThroughFacade(t *testing.T) {
	b := buildKV(t)
	sys, err := b.Deploy(sdg.Options{
		Mode:     sdg.FTAsync,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	for k := uint64(0); k < 30; k++ {
		if _, err := sys.Call("put", k, []byte{byte(k)}, timeout); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Checkpoint("store", 0); err != nil {
		t.Fatal(err)
	}
	node := sys.Stats().SEs[0].Nodes[0]
	sys.KillNode(node)
	if err := sys.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	if !sys.Drain(timeout) {
		t.Fatal("drain")
	}
	for k := uint64(0); k < 30; k++ {
		v, err := sys.Call("get", k, nil, timeout)
		if err != nil || v == nil || v.([]byte)[0] != byte(k) {
			t.Fatalf("get %d after recovery = %v, %v", k, v, err)
		}
	}
}

func TestScaleUpThroughFacade(t *testing.T) {
	b := buildKV(t)
	sys, err := b.Deploy(sdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	for k := uint64(0); k < 40; k++ {
		_, _ = sys.Call("put", k, []byte{1}, timeout)
	}
	if err := sys.ScaleUp("put"); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().SEs[0].Instances; got != 2 {
		t.Fatalf("instances after scale = %d", got)
	}
	for k := uint64(0); k < 40; k++ {
		v, err := sys.Call("get", k, nil, timeout)
		if err != nil || v == nil {
			t.Fatalf("get %d after repartition: %v %v", k, v, err)
		}
	}
}

func TestDeployInvalidGraphFails(t *testing.T) {
	b := sdg.NewGraph("bad")
	if _, err := b.Deploy(sdg.Options{}); err == nil {
		t.Fatal("empty graph must not deploy")
	}
}
