package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire"
)

// kvIfaceGraph is kvGraph built against the state.KV
// interface, so the same graph runs at any KVMap stripe count: shards > 0
// backs the store with a KVMap of that many stripes through the
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

	// Pre-scale epoch per instance name (store/1 has none yet).
	var pre [2]uint64
	for idx := range pre {
		m, _ := r.Backup().Latest(fmt.Sprintf("store/%d", idx))
		pre[idx] = m.Epoch
	}

	// Repartition 1 -> 2 instances.
	if err := r.ScaleUp("put"); err != nil {
		t.Fatal(err)
	}
	// Rebuilt instances must anchor fresh bases, not extend the old chain:
	// ScaleUp takes them before it returns.
	for idx := 0; idx < 2; idx++ {
		m, ok := r.Backup().Latest(fmt.Sprintf("store/%d", idx))
		if !ok || len(m.Chain) != 1 || m.Chain[0].Delta || m.Epoch <= pre[idx] {
			t.Fatalf("instance %d after ScaleUp: chain %+v epoch %d, want one base above epoch %d", idx, m.Chain, m.Epoch, pre[idx])
		}
	}
	for k := uint64(60); k < 80; k++ {
		put(k, fmt.Sprintf("v%d", k))
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
// seChain.needsFold, the chain compactor's trigger).
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
		if folds := chain.needsFold(); folds == tc.delta {
			t.Errorf("coordinator chain base %d deltas %v: needsFold = %v, want %v", tc.base, tc.deltas, folds, !tc.delta)
		}
	}
}

// TestSnapRecordRoundTrip: a coordinator record decodes to the part it was
// made from, both when flate shrinks the part (a deflated record carries
// its raw length) and when it cannot (a raw record); a deflated record
// whose length header or stream is cut short is an error.
func TestSnapRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	for _, tc := range []struct {
		name string
		data []byte
		flag byte
	}{
		{"raw", random, 0},
		{"deflated", bytes.Repeat([]byte("compressible "), 400), 1},
	} {
		p := sePart("store", 3, state.Chunk{Type: state.TypeKVMap, Index: 2, Data: tc.data})
		rec, raw := encodeSnapRecord(&p)
		if rec[0] != tc.flag || raw != len(wire.EncodeSnapPart(&p)) {
			t.Fatalf("%s: record flag %d raw length %d", tc.name, rec[0], raw)
		}
		got, err := decodeSnapRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Name != p.Name || got.Index != p.Index || got.ChunkIndex != p.ChunkIndex || !bytes.Equal(got.Data, p.Data) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		if tc.flag == 1 {
			for _, cut := range [][]byte{rec[:1], rec[:len(rec)/2]} {
				if _, err := decodeSnapRecord(cut); err == nil {
					t.Fatalf("%s: a record cut to %d of %d bytes decoded", tc.name, len(cut), len(rec))
				}
			}
		}
	}
}

// BenchmarkChainFold measures the coordinator's cost of one chain fold at
// the size of one kv_call_ckpt worker's instance: a 200k × 128 B base plus
// deltas of a tenth of the keys each, until the chain needs a fold. With
// random values flate cannot shrink a record, so every record is stored
// raw; with compressible values (16 random bytes, then zeros) every record
// is stored deflated and the fold inflates it.
func BenchmarkChainFold(b *testing.B) {
	for _, random := range []int{128, 16} {
		name := "values=random"
		if random < 128 {
			name = "values=compressible"
		}
		b.Run(name, func(b *testing.B) { benchChainFold(b, random) })
	}
}

func benchChainFold(b *testing.B, random int) {
	const keys, chunkBytes = 200_000, 1 << 20
	rng := rand.New(rand.NewSource(1))
	st := state.NewKVMap()
	put := func(k uint64) {
		v := make([]byte, 128)
		rng.Read(v[:random])
		st.Put(k, v)
	}
	for k := uint64(0); k < keys; k++ {
		put(k)
	}
	st.EnableDeltaTracking()
	ch := &seChain{}
	retain := func(epoch uint64, it state.ChunkIter, err error) {
		if err != nil {
			b.Fatal(err)
		}
		ref := checkpoint.EpochRef{Epoch: epoch, Delta: epoch > 1}
		for ck, ok, err := it.Next(); ok || err != nil; ck, ok, err = it.Next() {
			if err != nil {
				b.Fatal(err)
			}
			p := sePart("store", 0, ck)
			rec, _ := encodeSnapRecord(&p)
			ch.recs = append(ch.recs, rec)
			ref.Chunks++
			ref.Bytes += int64(len(rec))
		}
		ch.refs = append(ch.refs, ref)
	}
	it, err := state.StreamChunks(st, chunkBytes)
	retain(1, it, err)
	for epoch := uint64(2); !ch.needsFold(); epoch++ {
		for i := 0; i < keys/10; i++ {
			put(uint64(rng.Intn(keys)))
		}
		it, err := st.DeltaStream(chunkBytes)
		retain(epoch, it, err)
		st.CommitDelta()
	}
	c := &Coordinator{opts: CoordOptions{SnapChunkBytes: chunkBytes}}
	for b.Loop() {
		job := &foldJob{k: seKey{"store", 0}, ch: ch, recs: ch.recs, refs: ch.refs}
		if err := c.fold(job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ch.refs[0].Bytes)/(1<<20), "base_MB")
	b.ReportMetric(float64(len(ch.refs)-1), "deltas")
}
