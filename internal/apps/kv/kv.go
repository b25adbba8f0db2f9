// Package kv implements the distributed partitioned key/value store the
// paper uses as a synthetic benchmark "because it exemplifies an algorithm
// with pure mutable state" (§6.1). The store is a single partitioned KVMap
// SE with put/get/delete entry TEs accessing it by key.
package kv

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
)

func init() {
	runtime.RegisterGraph("kv", Graph)
}

// Graph builds the KV SDG.
func Graph() *core.Graph {
	g := core.NewGraph("kv")
	store := g.AddSE("store", core.KindPartitioned, state.TypeKVMap, nil)
	g.AddTE("put", func(ctx core.Context, it core.Item) {
		kvm := ctx.Store().(state.KV)
		kvm.Put(it.Key, it.Value.([]byte))
		ctx.Reply(true)
	}, &core.Access{SE: store, Mode: core.AccessByKey}, true)
	g.AddTE("get", func(ctx core.Context, it core.Item) {
		kvm := ctx.Store().(state.KV)
		if v, ok := kvm.Get(it.Key); ok {
			ctx.Reply(v)
			return
		}
		ctx.Reply(nil)
	}, &core.Access{SE: store, Mode: core.AccessByKey}, true)
	g.AddTE("delete", func(ctx core.Context, it core.Item) {
		kvm := ctx.Store().(state.KV)
		ctx.Reply(kvm.Delete(it.Key))
	}, &core.Access{SE: store, Mode: core.AccessByKey}, true)
	return g
}

// KV is a deployed key/value store.
type KV struct {
	rt *runtime.Runtime
}

// Config sizes the deployment.
type Config struct {
	// Partitions spreads the store over this many SE instances/nodes.
	Partitions int
	Runtime    runtime.Options
}

// New deploys the KV SDG.
func New(cfg Config) (*KV, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	opts := cfg.Runtime
	if opts.Partitions == nil {
		opts.Partitions = map[string]int{}
	}
	opts.Partitions["store"] = cfg.Partitions
	rt, err := runtime.Deploy(Graph(), opts)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	return &KV{rt: rt}, nil
}

// Put stores value under key and waits for the acknowledgement.
func (k *KV) Put(key uint64, value []byte, timeout time.Duration) error {
	_, err := k.rt.Call("put", key, value, timeout)
	return err
}

// PutAsync stores without waiting (the update-throughput path of Fig. 6).
func (k *KV) PutAsync(key uint64, value []byte) error {
	return k.rt.Inject("put", key, value)
}

// Get fetches the value under key; a nil result means the key is absent.
func (k *KV) Get(key uint64, timeout time.Duration) ([]byte, error) {
	v, err := k.rt.Call("get", key, nil, timeout)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return v.([]byte), nil
}

// Delete removes key, reporting whether it was present.
func (k *KV) Delete(key uint64, timeout time.Duration) (bool, error) {
	v, err := k.rt.Call("delete", key, nil, timeout)
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// StateBytes reports the aggregate store size across partitions.
func (k *KV) StateBytes() int64 {
	var total int64
	for _, se := range k.rt.Stats().SEs {
		total += se.Bytes
	}
	return total
}

// Runtime exposes the underlying runtime for experiments.
func (k *KV) Runtime() *runtime.Runtime { return k.rt }

// Stop shuts the deployment down.
func (k *KV) Stop() { k.rt.Stop() }
