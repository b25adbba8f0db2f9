package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
)

// kvIfaceGraph is kvGraph built against the backend-neutral state.KV
// interface, so the same graph runs over KVMap and ShardedKVMap: shards > 0
// backs the store with a ShardedKVMap of that many stripes through the
// SE's builder, 0 keeps the default KVMap.
func kvIfaceGraph(shards int) *core.Graph {
	g := core.NewGraph("kv")
	var build func() state.Store
	if shards > 0 {
		build = func() state.Store { return state.NewShardedKVMap(shards) }
	}
	se := g.AddSE("store", core.KindPartitioned, state.TypeKVMap, build)
	g.AddTE("put", func(ctx core.Context, it core.Item) {
		kv := ctx.Store().(state.KV)
		kv.Put(it.Key, it.Value.([]byte))
		ctx.Reply(true)
	}, &core.Access{SE: se, Mode: core.AccessByKey}, true)
	g.AddTE("del", func(ctx core.Context, it core.Item) {
		kv := ctx.Store().(state.KV)
		ctx.Reply(kv.Delete(it.Key))
	}, &core.Access{SE: se, Mode: core.AccessByKey}, true)
	g.AddTE("get", func(ctx core.Context, it core.Item) {
		kv := ctx.Store().(state.KV)
		v, ok := kv.Get(it.Key)
		if !ok {
			ctx.Reply(nil)
			return
		}
		ctx.Reply(v)
	}, &core.Access{SE: se, Mode: core.AccessByKey}, true)
	return g
}

// TestDeltaCheckpointChain drives manual epochs through CheckpointNow and
// asserts the base/delta/compaction cadence: every epoch is a delta exactly
// when checkpoint.ShouldDelta allows it over the committed chain, and the
// chain compacts once its deltas reach half the base's bytes.
func TestDeltaCheckpointChain(t *testing.T) {
	r, err := Deploy(kvIfaceGraph(0), Options{
		Mode:             checkpoint.ModeAsync,
		Interval:         time.Hour, // manual checkpoints only
		DeltaCheckpoints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for k := uint64(0); k < 40; k++ {
		if _, err := r.Call("put", k, []byte(fmt.Sprintf("v%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// Each churn rewrites a fifth of the keys, so a handful of deltas
	// reaches half the base and forces a compaction.
	churn := func(tag string) {
		for k := uint64(0); k < 8; k++ {
			if _, err := r.Call("put", k, []byte(tag), testTimeout); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []bool
	for i := 0; i < 10; i++ {
		churn(fmt.Sprintf("c%d", i))
		prev, _ := r.bk.Latest("store/0")
		res, err := r.CheckpointNow("store", 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := checkpoint.ShouldDelta(prev.Chain); res.Meta.Delta != want {
			t.Fatalf("epoch %d delta = %v, want %v (chain %+v)", i, res.Meta.Delta, want, prev.Chain)
		}
		if res.Meta.Delta && res.Bytes >= res.StateBytes {
			t.Fatalf("epoch %d: delta bytes %d not below state size %d", i, res.Bytes, res.StateBytes)
		}
		got = append(got, res.Meta.Delta)
	}
	// The cadence must include deltas and a compaction back to a base.
	compacted := false
	for i := 2; i < len(got); i++ {
		compacted = compacted || (got[i-1] && !got[i])
	}
	if !got[1] || !compacted {
		t.Fatalf("epochs delta = %v: want deltas after the first base and a later compaction", got)
	}
}

// TestDeltaRecovery kills the store's node after a base + delta chain and
// recovers onto n fresh nodes, for both dictionary backends and both 1-to-1
// and 1-to-2 rescale — the end-to-end crash-recovery acceptance path.
func TestDeltaRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		n      int
	}{
		{"kvmap/1to1", 0, 1},
		{"kvmap/1to2", 0, 2},
		{"sharded/1to1", 8, 1},
		{"sharded/1to2", 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Deploy(kvIfaceGraph(tc.shards), Options{
				Mode:             checkpoint.ModeAsync,
				Interval:         time.Hour,
				Chunks:           4,
				DeltaCheckpoints: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			for k := uint64(0); k < 60; k++ {
				if _, err := r.Call("put", k, []byte(fmt.Sprintf("pre%d", k)), testTimeout); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.CheckpointNow("store", 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta.Delta {
				t.Fatal("first epoch must be a full base")
			}
			// Churn captured by two delta epochs: overwrites and a delete.
			for k := uint64(0); k < 10; k++ {
				if _, err := r.Call("put", k, []byte(fmt.Sprintf("d1-%d", k)), testTimeout); err != nil {
					t.Fatal(err)
				}
			}
			if res, err = r.CheckpointNow("store", 0); err != nil || !res.Meta.Delta {
				t.Fatalf("second epoch: delta=%v err=%v", res.Meta.Delta, err)
			}
			for k := uint64(10); k < 15; k++ {
				if _, err := r.Call("put", k, []byte(fmt.Sprintf("d2-%d", k)), testTimeout); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.Call("del", 59, nil, testTimeout); err != nil {
				t.Fatal(err)
			}
			if res, err = r.CheckpointNow("store", 0); err != nil || !res.Meta.Delta {
				t.Fatalf("third epoch: delta=%v err=%v", res.Meta.Delta, err)
			}
			// Post-checkpoint writes recover via replay, not the chain.
			for k := uint64(60); k < 70; k++ {
				if _, err := r.Call("put", k, []byte(fmt.Sprintf("post%d", k)), testTimeout); err != nil {
					t.Fatal(err)
				}
			}

			seNode := r.Stats().SEs[0].Nodes[0]
			r.KillNode(seNode)
			stats, err := r.Recover("store", tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if stats.NewNodes != tc.n {
				t.Fatalf("new nodes = %d, want %d", stats.NewNodes, tc.n)
			}
			if !r.Drain(testTimeout) {
				t.Fatal("did not drain after recovery")
			}

			for k := uint64(0); k < 70; k++ {
				got, err := r.Call("get", k, nil, testTimeout)
				if err != nil {
					t.Fatalf("get %d after recovery: %v", k, err)
				}
				var want string
				switch {
				case k == 59:
					if got != nil {
						t.Fatalf("deleted key %d resurrected as %q", k, got)
					}
					continue
				case k < 10:
					want = fmt.Sprintf("d1-%d", k)
				case k < 15:
					want = fmt.Sprintf("d2-%d", k)
				case k < 60:
					want = fmt.Sprintf("pre%d", k)
				default:
					want = fmt.Sprintf("post%d", k)
				}
				if got == nil || string(got.([]byte)) != want {
					t.Fatalf("get %d = %v, want %q", k, got, want)
				}
			}

			// Post-recovery epochs restart the chain with a base, then go
			// incremental again.
			if _, err := r.Call("put", 0, []byte("after"), testTimeout); err != nil {
				t.Fatal(err)
			}
			res, err = r.CheckpointNow("store", 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta.Delta {
				t.Fatal("first post-recovery epoch must be a full base")
			}
			if _, err := r.Call("put", 1, []byte("after2"), testTimeout); err != nil {
				t.Fatal(err)
			}
			if res, err = r.CheckpointNow("store", 0); err != nil || !res.Meta.Delta {
				t.Fatalf("second post-recovery epoch: delta=%v err=%v", res.Meta.Delta, err)
			}
		})
	}
}

// TestDeltaScaleUpRepartition covers the scaling hazard end to end: a
// repartition rebuilds the SE instances (epoch counters inherited, chains
// un-anchored), so each rebuilt instance's next epoch must be a fresh base
// that does not collide with — or GC away — the superseded chain, and
// recovery afterwards must restore the repartitioned state.
func TestDeltaScaleUpRepartition(t *testing.T) {
	r, err := Deploy(kvIfaceGraph(0), Options{
		Mode:             checkpoint.ModeAsync,
		Interval:         time.Hour,
		Chunks:           2,
		DeltaCheckpoints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	put := func(k uint64, v string) {
		t.Helper()
		if _, err := r.Call("put", k, []byte(v), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 60; k++ {
		put(k, fmt.Sprintf("v%d", k))
	}
	if res, err := r.CheckpointNow("store", 0); err != nil || res.Meta.Delta {
		t.Fatalf("first epoch: delta=%v err=%v", res.Meta.Delta, err)
	}
	for k := uint64(0); k < 10; k++ {
		put(k, fmt.Sprintf("u%d", k))
	}
	if res, err := r.CheckpointNow("store", 0); err != nil || !res.Meta.Delta {
		t.Fatalf("second epoch: delta=%v err=%v", res.Meta.Delta, err)
	}

	// Repartition 1 -> 2 instances.
	if err := r.ScaleUp("put"); err != nil {
		t.Fatal(err)
	}
	for k := uint64(60); k < 80; k++ {
		put(k, fmt.Sprintf("v%d", k))
	}
	// Rebuilt instances must anchor fresh bases, not extend the old chain.
	for idx := 0; idx < 2; idx++ {
		res, err := r.CheckpointNow("store", idx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Meta.Delta {
			t.Fatalf("instance %d: first post-repartition epoch must be a base", idx)
		}
	}
	for k := uint64(0); k < 5; k++ {
		put(k, "post-scale")
	}
	if res, err := r.CheckpointNow("store", 0); err != nil || !res.Meta.Delta {
		t.Fatalf("post-scale second epoch: delta=%v err=%v", res.Meta.Delta, err)
	}
	if res, err := r.CheckpointNow("store", 1); err != nil || !res.Meta.Delta {
		t.Fatalf("post-scale second epoch (inst 1): delta=%v err=%v", res.Meta.Delta, err)
	}

	// Kill one partition's node and recover it in place from base+delta.
	seNode := r.Stats().SEs[0].Nodes[1]
	r.KillNode(seNode)
	if _, err := r.Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after recovery")
	}
	for k := uint64(0); k < 80; k++ {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		want := fmt.Sprintf("v%d", k)
		if k < 5 {
			want = "post-scale"
		} else if k < 10 {
			want = fmt.Sprintf("u%d", k)
		}
		if got == nil || string(got.([]byte)) != want {
			t.Fatalf("get %d = %v, want %q", k, got, want)
		}
	}
}

// TestCompactionRuleBothSinks checks that the two chain keepers compact at
// the same 0.5 boundary: the backup store's manifest chain (read by async
// delta checkpoints) and the coordinator's retained chain (read by
// retainedSnap.rebase to request a fresh base from a worker).
func TestCompactionRuleBothSinks(t *testing.T) {
	for _, tc := range []struct {
		base   int
		deltas []int
		delta  bool // the next epoch may be a delta
	}{
		{100, nil, true},
		{100, []int{49}, true},
		{100, []int{50}, false},
		{100, []int{20, 20, 9}, true},
		{100, []int{20, 20, 10}, false},
		{101, []int{50}, true},
		{100, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, true},
	} {
		cl := cluster.New(1, cluster.Config{})
		bk := checkpoint.NewBackup(cl, []*cluster.Node{cl.Node(0)})
		chain := &seChain{}
		for i, n := range append([]int{tc.base}, tc.deltas...) {
			d := i > 0
			c := state.Chunk{Type: state.TypeKVMap, Of: 1, Delta: d, Data: make([]byte, n)}
			if _, err := bk.Save(checkpoint.Meta{SE: "store/0", Epoch: uint64(i + 1), Delta: d}, []state.Chunk{c}); err != nil {
				t.Fatal(err)
			}
			chain.refs = append(chain.refs, checkpoint.EpochRef{Epoch: uint64(i + 1), Chunks: 1, Bytes: int64(n), Delta: d})
		}
		latest, _ := bk.Latest("store/0")
		if got := checkpoint.ShouldDelta(latest.Chain); got != tc.delta {
			t.Errorf("backup chain base %d deltas %v: ShouldDelta = %v, want %v", tc.base, tc.deltas, got, tc.delta)
		}
		k := seKey{name: "store", index: 0}
		rs := retainedSnap{ses: map[seKey]*seChain{k: chain}, order: []seKey{k}}
		if rebased := len(rs.rebase()) == 1; rebased == tc.delta {
			t.Errorf("coordinator chain base %d deltas %v: rebase = %v, want %v", tc.base, tc.deltas, rebased, !tc.delta)
		}
	}
}
