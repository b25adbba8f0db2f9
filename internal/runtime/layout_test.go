package runtime_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
)

// The Fig. 1 request/reply shape in miniature: a stateless entry
// broadcasts to a TE reading partial state under global access, and an
// all-to-one merge gathers one partial per instance and replies.
func init() {
	runtime.RegisterGraph("scattergather", func() *core.Graph {
		g := core.NewGraph("scattergather")
		part := g.AddSE("part", core.KindPartial, state.TypeKVMap, nil)
		ask := g.AddTE("ask", func(ctx core.Context, it core.Item) {
			ctx.EmitReq(0, it.Key, nil)
		}, nil, true)
		local := g.AddTE("local", func(ctx core.Context, it core.Item) {
			ctx.EmitReq(0, it.Key, []byte("p"))
		}, &core.Access{SE: part, Mode: core.AccessGlobal}, false)
		merge := g.AddTE("merge", func(ctx core.Context, it core.Item) {
			ctx.Reply([]byte(fmt.Sprint(len(it.Value.(core.Collection)))))
		}, nil, false)
		g.Connect(ask, local, core.DispatchOneToAll)
		g.Connect(local, merge, core.DispatchAllToOne)
		return g
	})
}

// localWorkers starts n in-process workers that reach each other through
// one registry, and returns their endpoints.
func localWorkers(t *testing.T, n int) []runtime.WorkerEndpoint {
	t.Helper()
	reg := &localRegistry{m: map[string]cluster.Handler{}}
	eps := make([]runtime.WorkerEndpoint, n)
	for i := range eps {
		w := runtime.NewWorker()
		t.Cleanup(w.Close)
		w.SetDialer(reg.dial)
		addr := fmt.Sprintf("w%d", i)
		reg.set(addr, w.Handler())
		eps[i] = runtime.WorkerEndpoint{Addr: addr, Data: cluster.Local(w.Handler(), 0), Control: cluster.Local(w.Handler(), 0)}
	}
	return eps
}

// TestUnsupportedGatherLayoutRejected: a gather whose partials come from
// more than one worker is refused at deploy with ErrUnsupportedLayout,
// while the same graph on one worker and the gather-free apps on two
// still deploy.
func TestUnsupportedGatherLayoutRejected(t *testing.T) {
	if _, err := runtime.NewCoordinator("scattergather", localWorkers(t, 2), runtime.CoordOptions{}); !errors.Is(err, runtime.ErrUnsupportedLayout) {
		t.Fatalf("scatter/gather on 2 workers: err = %v, want ErrUnsupportedLayout", err)
	}

	coord, err := runtime.NewCoordinator("scattergather", localWorkers(t, 1), runtime.CoordOptions{})
	if err != nil {
		t.Fatalf("scatter/gather on 1 worker: %v", err)
	}
	reply, err := coord.Call("ask", 1, nil, 5*time.Second)
	coord.Close()
	if err != nil {
		t.Fatalf("scatter/gather call on 1 worker: %v", err)
	}
	if got, ok := reply.([]byte); !ok || string(got) != "1" {
		t.Fatalf("scatter/gather reply = %v, want one partial", reply)
	}

	for _, name := range []string{"kv", "counter", "counterchain"} {
		coord, err := runtime.NewCoordinator(name, localWorkers(t, 2), runtime.CoordOptions{})
		if err != nil {
			t.Fatalf("%s on 2 workers: %v", name, err)
		}
		coord.Close()
	}
}
