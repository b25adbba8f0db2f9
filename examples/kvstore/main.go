// KV store with failure recovery: builds a partitioned key/value store,
// takes an asynchronous dirty-state checkpoint, kills the node holding the
// state, recovers it 1-to-2 (one failed instance restored in parallel onto
// two new nodes) and shows that both pre- and post-checkpoint writes
// survive thanks to the replay of logged inputs.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"time"

	"repro/sdg"
)

func main() {
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

	sys, err := b.Deploy(sdg.Options{
		Mode:          sdg.FTAsync,
		Interval:      time.Hour, // manual checkpoints for the demo
		DiskBandwidth: 64 << 20,  // 64 MB/s simulated backup disks
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	const timeout = 10 * time.Second

	// Phase 1: load 500 keys, checkpoint.
	for k := uint64(0); k < 500; k++ {
		if _, err := sys.Call("put", k, []byte(fmt.Sprintf("pre-checkpoint-%d", k)), timeout); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Checkpoint("store", 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint committed: 500 keys, hash-partitioned chunks on 2 backup disks")

	// Phase 2: more writes that exist only in the replay log.
	for k := uint64(500); k < 600; k++ {
		if _, err := sys.Call("put", k, []byte(fmt.Sprintf("post-checkpoint-%d", k)), timeout); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("100 more writes after the checkpoint (covered only by the replay log)")

	// Phase 3: kill the node hosting the store.
	node := sys.Stats().SEs[0].Nodes[0]
	sys.KillNode(node)
	fmt.Printf("killed node %d; store unreachable\n", node)
	if _, err := sys.Call("get", 1, nil, 200*time.Millisecond); err == nil {
		log.Fatal("expected reads to fail while the node is down")
	}

	// Phase 4: 1-to-2 recovery — the chunks are split and restored to two
	// fresh nodes in parallel, then the logged inputs replay.
	start := time.Now()
	if err := sys.Recover("store", 2); err != nil {
		log.Fatal(err)
	}
	sys.Drain(timeout)
	fmt.Printf("recovered 1-to-2 in %v\n", time.Since(start).Round(time.Millisecond))

	// Phase 5: verify every key, including post-checkpoint ones.
	for k := uint64(0); k < 600; k++ {
		want := fmt.Sprintf("pre-checkpoint-%d", k)
		if k >= 500 {
			want = fmt.Sprintf("post-checkpoint-%d", k)
		}
		v, err := sys.Call("get", k, nil, timeout)
		if err != nil || v == nil || string(v.([]byte)) != want {
			log.Fatalf("key %d lost or wrong after recovery: %v %v", k, v, err)
		}
	}
	st := sys.Stats()
	fmt.Printf("all 600 keys verified; store now has %d partitions on nodes %v\n",
		st.SEs[0].Instances, st.SEs[0].Nodes)
}
