package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/state"
)

// TestShardedCheckpointAndRecover replays the 1-to-1 recovery drill with
// the sharded backend: checkpoint, node kill, m-to-n restore, replay.
func TestShardedCheckpointAndRecover(t *testing.T) {
	r, err := Deploy(kvIfaceGraph(8), Options{
		Mode:     checkpoint.ModeAsync,
		Interval: time.Hour, // manual checkpoints only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for k := uint64(0); k < 50; k++ {
		if _, err := r.Call("put", k, []byte(fmt.Sprintf("pre%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(50); k < 80; k++ {
		if _, err := r.Call("put", k, []byte(fmt.Sprintf("post%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}

	var seNode int
	for _, se := range r.Stats().SEs {
		if se.Name == "store" {
			seNode = se.Nodes[0]
		}
	}
	r.KillNode(seNode)
	stats, err := r.Recover("store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewNodes != 1 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if !r.Drain(testTimeout) {
		t.Fatal("did not drain after recovery")
	}
	// The restored store must again be sharded (the SE's builder survives
	// recovery even though the chunks are backend-neutral).
	st, err := r.StateStore("store", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*state.ShardedKVMap); !ok {
		t.Fatalf("recovered store = %T, want *state.ShardedKVMap", st)
	}
	for k := uint64(0); k < 80; k++ {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil {
			t.Fatalf("get %d after recovery: %v", k, err)
		}
		want := fmt.Sprintf("pre%d", k)
		if k >= 50 {
			want = fmt.Sprintf("post%d", k)
		}
		if got == nil || string(got.([]byte)) != want {
			t.Fatalf("get %d = %v, want %q", k, got, want)
		}
	}
}

// TestShardedRepartition grows a sharded partitioned SE: the re-chunk +
// split path must preserve contents across backends.
func TestShardedRepartition(t *testing.T) {
	r, err := Deploy(kvIfaceGraph(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for k := uint64(0); k < 60; k++ {
		if _, err := r.Call("put", k, []byte(fmt.Sprintf("v%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ScaleUp("put"); err != nil {
		t.Fatal(err)
	}
	if got := r.StateInstances("store"); got != 2 {
		t.Fatalf("store instances after scale-up = %d, want 2", got)
	}
	total := 0
	for i := 0; i < 2; i++ {
		st, err := r.StateStore("store", i)
		if err != nil {
			t.Fatal(err)
		}
		sh, ok := st.(*state.ShardedKVMap)
		if !ok {
			t.Fatalf("partition %d store = %T after repartition", i, st)
		}
		total += sh.NumEntries()
	}
	if total != 60 {
		t.Fatalf("entries after repartition = %d, want 60", total)
	}
	for k := uint64(0); k < 60; k++ {
		got, err := r.Call("get", k, nil, testTimeout)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if want := fmt.Sprintf("v%d", k); string(got.([]byte)) != want {
			t.Fatalf("get %d = %q, want %q", k, got, want)
		}
	}
}
