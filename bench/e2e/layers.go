package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/wire"
)

// This file times each layer's exported functions alone, at the shapes the
// workloads put through them. The numbers are the per-layer half of the
// budget: a change that claims to speed a layer up should move its line
// here and the end-to-end metric README.md maps it to.

// timeN runs f n times and returns nanoseconds and heap allocations per
// iteration.
func timeN(n int, f func()) (ns, allocs float64) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	took := time.Since(start)
	goruntime.ReadMemStats(&after)
	return float64(took) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// externalOrigin mirrors the origin the coordinator stamps on injected
// items, so the encoded sizes match the live path's.
const externalOrigin = ^uint64(0)

func makeItems(n int, value any) []core.Item {
	items := make([]core.Item, n)
	for i := range items {
		items[i] = core.Item{Origin: externalOrigin, Seq: uint64(1_000_000 + i), Key: splitmix(uint64(i)) % 65_536, Value: value}
	}
	return items
}

// codecTimes times one message's encode (into a reused buffer, as the
// coordinator does) and decode.
func codecTimes(n int, msgType byte, msg any, decodeInto func() any) (encNs, decNs, size, allocs float64, err error) {
	frame, err := wire.EncodeAppend(nil, msgType, msg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	buf := make([]byte, 0, len(frame))
	encNs, encAllocs := timeN(n, func() {
		buf, err = wire.EncodeAppend(buf[:0], msgType, msg)
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	decNs, decAllocs := timeN(n, func() {
		_, payload, derr := wire.Decode(frame)
		if derr == nil {
			derr = wire.Unmarshal(payload, decodeInto())
		}
		if derr != nil {
			err = derr
		}
	})
	return encNs, decNs, float64(len(frame)), encAllocs + decAllocs, err
}

func wireLayer(res *result) error {
	value := make([]byte, valueBytes)
	call := wire.Call{Task: "put", Item: makeItems(1, value)[0], TimeoutMs: 10_000}
	enc, dec, size, allocs, err := codecTimes(20_000, wire.MsgCall, call, func() any { return new(wire.Call) })
	if err != nil {
		return fmt.Errorf("wire call: %w", err)
	}
	res.set("wire.call_enc_ns", enc, "ns", 20_000)
	res.set("wire.call_dec_ns", dec, "ns", 20_000)
	res.set("wire.call_bytes", size, "B", 0)
	res.set("wire.call_allocs", allocs, "count", 20_000)

	inject := wire.Inject{Task: "ingest", Items: makeItems(ingestBatch, nil)}
	enc, dec, size, allocs, err = codecTimes(2_000, wire.MsgInject, inject, func() any { return new(wire.Inject) })
	if err != nil {
		return fmt.Errorf("wire inject: %w", err)
	}
	res.set("wire.inject256_enc_ns", enc, "ns", 2_000)
	res.set("wire.inject256_dec_ns", dec, "ns", 2_000)
	res.set("wire.inject256_bytes", size, "B", 0)
	res.set("wire.inject256_allocs", allocs, "count", 2_000)

	emit := wire.RemoteEmit{Edge: 0, Inst: 1, Items: makeItems(64, nil)}
	enc, dec, size, _, err = codecTimes(5_000, wire.MsgRemoteEmit, emit, func() any { return new(wire.RemoteEmit) })
	if err != nil {
		return fmt.Errorf("wire remote emit: %w", err)
	}
	res.set("wire.remoteemit64_enc_ns", enc, "ns", 5_000)
	res.set("wire.remoteemit64_dec_ns", dec, "ns", 5_000)
	res.set("wire.remoteemit64_bytes", size, "B", 0)

	chunk := wire.SnapChunk{Stream: 1, Seq: 1, Part: wire.SnapPart{Kind: wire.PartSE, Name: "store",
		Store: state.TypeKVMap, Data: make([]byte, 1<<20)}}
	enc, dec, _, _, err = codecTimes(50, wire.MsgSnapChunk, chunk, func() any { return new(wire.SnapChunk) })
	if err != nil {
		return fmt.Errorf("wire snap chunk: %w", err)
	}
	res.set("wire.snapchunk_enc_ns_per_mb", enc, "ns", 50)
	res.set("wire.snapchunk_dec_ns_per_mb", dec, "ns", 50)
	return nil
}

// clusterLayer measures the transport alone: an echo handler behind
// cluster.Serve, reached over cluster.Dial.
func clusterLayer(res *result) error {
	srv, err := cluster.Serve("127.0.0.1:0", func(req []byte) ([]byte, error) { return req, nil })
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := cluster.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	small, err := echo(cl, make([]byte, 128), 5_000)
	if err != nil {
		return err
	}
	s := sortedCopy(small)
	res.set("cluster.rtt_128b_p50_us", quantile(s, 0.5)/1e3, "us", len(s))
	res.set("cluster.rtt_128b_p99_us", quantile(s, 0.99)/1e3, "us", len(s))
	batch, err := echo(cl, make([]byte, 2560), 2_000)
	if err != nil {
		return err
	}
	res.set("cluster.rtt_2560b_p50_us", median(batch)/1e3, "us", len(batch))
	big, err := echo(cl, make([]byte, 1<<20), 50)
	if err != nil {
		return err
	}
	res.set("cluster.rtt_1mb_p50_us", median(big)/1e3, "us", len(big))
	return nil
}

// runtimeLayer deploys the graphs in this process with the options the
// workers get, so the cost of the runtime is seen without any wire.
func runtimeLayer(res *result) error {
	const keys = 20_000
	rt, err := runtime.Deploy(kv.Graph(), runtime.Options{Mode: checkpoint.ModeOff,
		Partitions: map[string]int{"store": 1}})
	if err != nil {
		return err
	}
	value := make([]byte, valueBytes)
	for k := uint64(0); k < keys; k++ {
		if _, err := rt.Call("put", k, value, 10*time.Second); err != nil {
			rt.Stop()
			return err
		}
	}
	calls := make(durs, 0, 10_000)
	for i := 0; i < cap(calls); i++ {
		k := splitmix(uint64(i)) % keys
		task, v := "get", any(nil)
		if i&1 == 1 {
			task, v = "put", value
		}
		t0 := time.Now()
		if _, err := rt.Call(task, k, v, 10*time.Second); err != nil {
			rt.Stop()
			return err
		}
		calls = append(calls, float64(time.Since(t0)))
	}
	rt.Stop()
	res.set("runtime.call_p50_us", median(calls)/1e3, "us", len(calls))

	rt, err = runtime.Deploy(counter.ChainGraph(), runtime.Options{Mode: checkpoint.ModeOff, BatchSize: 64,
		Partitions: map[string]int{"counts": 2}})
	if err != nil {
		return err
	}
	defer rt.Stop()
	batch := make([]runtime.InjectItem, ingestBatch)
	const batches = 800
	var injectErr error
	i := uint64(0)
	ns, allocs := timeN(batches, func() {
		for j := range batch {
			i++
			batch[j].Key = splitmix(i) % 65_536
		}
		if err := rt.InjectBatch("ingest", batch); err != nil {
			injectErr = err
		}
	})
	if injectErr != nil {
		return injectErr
	}
	start := time.Now()
	if !rt.Drain(60 * time.Second) {
		return fmt.Errorf("runtime layer: in-process counterchain did not drain")
	}
	// Injection returns once items are enqueued; the drain that follows is
	// part of what the items cost.
	ns += float64(time.Since(start)) / batches
	res.set("runtime.inject_ns_per_item", ns/ingestBatch, "ns", batches*ingestBatch)
	res.set("runtime.inject_allocs_per_item", allocs/ingestBatch, "count", batches*ingestBatch)
	res.set("runtime.inject256_mean_us", ns/1e3, "us", batches)
	res.set("runtime.batch_p50", float64(rt.BatchSizes.Percentile(50)), "count", int(rt.BatchSizes.Count()))
	res.set("runtime.admit_wait_p99_us", float64(rt.AdmitLatency.Percentile(99))/1e3, "us", int(rt.AdmitLatency.Count()))
	return nil
}

func dataflowLayer(res *result) {
	const rounds = 2_000
	items := makeItems(ingestBatch, nil)
	total := float64(rounds * ingestBatch)

	dedup := dataflow.NewDedup()
	keep := make([]core.Item, 0, ingestBatch)
	seq := uint64(0)
	ns, _ := timeN(rounds, func() {
		for i := range items {
			seq++
			items[i].Seq = seq
		}
		keep = dedup.FreshBatch(items, keep[:0])
	})
	res.set("dataflow.dedup_freshbatch_ns_per_item", ns/ingestBatch, "ns", int(total))

	buf := &dataflow.OutputBuffer{}
	seq = 0
	ns, _ = timeN(rounds, func() {
		for i := range items {
			seq++
			items[i].Seq = seq
		}
		buf.AppendBatch(items)
	})
	res.set("dataflow.outbuf_appendbatch_ns_per_item", ns/ingestBatch, "ns", int(total))
	start := time.Now()
	buf.Trim(map[uint64]uint64{externalOrigin: seq})
	res.set("dataflow.outbuf_trim_ns_per_item", float64(time.Since(start))/total, "ns", int(total))

	router := &dataflow.Router{Dispatch: core.DispatchPartitioned}
	dst := make([]int, 0, ingestBatch)
	ns, _ = timeN(rounds, func() { dst = router.RouteBatch(items, 2, dst[:0]) })
	res.set("dataflow.routebatch_ns_per_item", ns/ingestBatch, "ns", int(total))
}

// stateLayer times the dictionary backends at the kv workloads' value
// size, and the checkpoint stream over them.
func stateLayer(res *result) error {
	const entries = 100_000
	value := make([]byte, valueBytes)
	fill := func(m state.KV) {
		for k := uint64(0); k < entries; k++ {
			v := make([]byte, valueBytes)
			m.Put(k, v)
		}
	}
	access := func(prefix string, m state.KV) {
		i := uint64(0)
		ns, _ := timeN(200_000, func() { i++; m.Get(splitmix(i) % entries) })
		res.set(prefix+"_get_ns", ns, "ns", 200_000)
		ns, _ = timeN(200_000, func() { i++; m.Put(splitmix(i)%entries, value) })
		res.set(prefix+"_put_ns", ns, "ns", 200_000)
	}

	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	plain := state.NewKVMap()
	fill(plain)
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	res.set("state.bytes_per_entry", float64(after.HeapAlloc-before.HeapAlloc)/entries, "B", entries)
	access("state.kvmap", plain)
	sharded := state.NewShardedKVMap(8)
	fill(sharded)
	access("state.sharded", sharded)

	// The raw chunk iterator over a quiescent store...
	start := time.Now()
	iter, err := state.StreamChunks(plain, 1<<20)
	if err != nil {
		return err
	}
	bytes, err := drainChunks(iter)
	if err != nil {
		return err
	}
	res.set("state.stream_mb_per_s", float64(bytes)/(1<<20)/time.Since(start).Seconds(), "MB/s", 0)

	// ...and the same stream behind the dirty cut the workers serve
	// snapshots through, with a writer active, as on kv_call_ckpt.
	start = time.Now()
	cs, err := checkpoint.StreamAsync(plain, 1<<20)
	if err != nil {
		return err
	}
	res.set("checkpoint.stream_open_us", float64(time.Since(start))/1e3, "us", 0)
	i := uint64(0)
	ns, _ := timeN(20_000, func() { i++; plain.Put(splitmix(i)%entries, value) })
	res.set("checkpoint.put_during_stream_ns", ns, "ns", 20_000)
	start = time.Now()
	bytes, err = drainChunks(cs)
	if err != nil {
		return err
	}
	res.set("checkpoint.stream_mb_per_s", float64(bytes)/(1<<20)/time.Since(start).Seconds(), "MB/s", 0)
	start = time.Now()
	if err := cs.Close(); err != nil {
		return err
	}
	res.set("checkpoint.stream_close_us", float64(time.Since(start))/1e3, "us", 0)
	return nil
}

func drainChunks(iter state.ChunkIter) (int, error) {
	total := 0
	for {
		c, ok, err := iter.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return total, nil
		}
		total += len(c.Data)
	}
}

// isolatedLayers runs every standalone timing into res.
func isolatedLayers(res *result) error {
	if err := wireLayer(res); err != nil {
		return err
	}
	if err := clusterLayer(res); err != nil {
		return err
	}
	if err := runtimeLayer(res); err != nil {
		return err
	}
	dataflowLayer(res)
	return stateLayer(res)
}
