package naiadsim

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/state"
)

func kvEngine(ckptEvery time.Duration, disk *cluster.Disk, batch int) (*Engine, *state.KVMap) {
	kv := state.NewKVMap()
	e := New(Config{
		BatchSize:       batch,
		CheckpointEvery: ckptEvery,
		Disk:            disk,
		Apply: func(batch []Item) {
			for _, it := range batch {
				kv.Put(it.Key, it.Value.([]byte))
			}
		},
		Snapshot: func() []byte {
			// An unbounded base stream is one chunk.
			it, err := state.StreamChunks(kv, math.MaxInt)
			if err != nil {
				return nil
			}
			c, _, _ := it.Next()
			return c.Data
		},
	})
	return e, kv
}

func TestBatchProcessing(t *testing.T) {
	e, kv := kvEngine(0, nil, 100)
	defer e.Stop()
	for k := uint64(0); k < 1000; k++ {
		if err := e.Submit(Item{Key: k, Value: []byte{byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Processed() < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Processed() != 1000 {
		t.Fatalf("processed %d", e.Processed())
	}
	if kv.NumEntries() != 1000 {
		t.Fatalf("state entries = %d", kv.NumEntries())
	}
	// ~1000/100 batches, plus partial ones from lingering.
	if b := e.Batches(); b < 10 || b > 200 {
		t.Fatalf("batches = %d", b)
	}
}

func TestSubmitSyncRecordsLatency(t *testing.T) {
	e, _ := kvEngine(0, nil, 10)
	defer e.Stop()
	if err := e.SubmitSync(Item{Key: 1, Value: []byte{1}}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Latency().Count() != 1 {
		t.Fatal("latency not recorded")
	}
}

func TestStopTheWorldCheckpointPausesProcessing(t *testing.T) {
	// With a slow disk, the synchronous checkpoint must starve processing:
	// items submitted during the pause wait for the full state write.
	disk := cluster.NewDisk(1<<20, 0) // 1 MB/s
	e, kv := kvEngine(30*time.Millisecond, disk, 100)
	defer e.Stop()
	// Build ~200 KB of state.
	for k := uint64(0); k < 800; k++ {
		if err := e.Submit(Item{Key: k, Value: make([]byte, 256)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Processed() < 800 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if kv.NumEntries() != 800 {
		t.Fatalf("entries = %d", kv.NumEntries())
	}
	// Wait past the checkpoint interval, then measure a synchronous put.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := e.SubmitSync(Item{Key: 9999, Value: []byte{1}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// ~200 KB at 1 MB/s is ~200 ms of stop-the-world.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("put during checkpoint window returned in %v; world did not stop", elapsed)
	}
	if e.CheckpointPauses().Count() == 0 {
		t.Fatal("no checkpoint pauses recorded")
	}
}

func TestNoDiskCheckpointCheaperThanDisk(t *testing.T) {
	run := func(disk *cluster.Disk) time.Duration {
		e, _ := kvEngine(10*time.Millisecond, disk, 100)
		defer e.Stop()
		for k := uint64(0); k < 2000; k++ {
			if err := e.Submit(Item{Key: k, Value: make([]byte, 256)}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for e.Processed() < 2000 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond) // force at least one more checkpoint window
		start := time.Now()
		if err := e.SubmitSync(Item{Key: 1, Value: []byte{1}}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slowDisk := run(cluster.NewDisk(1<<20, 0))
	noDisk := run(nil)
	if noDisk >= slowDisk {
		t.Errorf("Naiad-NoDisk pause (%v) should beat Naiad-Disk (%v)", noDisk, slowDisk)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	e, _ := kvEngine(0, nil, 10)
	e.Stop()
	if err := e.Submit(Item{}); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
	if err := e.SubmitSync(Item{}, time.Second); err != ErrStopped {
		t.Fatalf("sync err = %v", err)
	}
}

func TestBackpressureBlocksSubmitters(t *testing.T) {
	slow := New(Config{
		BatchSize:  1,
		QueueLen:   4,
		SchedDelay: 5 * time.Millisecond,
		Apply:      func([]Item) {},
		Snapshot:   func() []byte { return nil },
	})
	defer slow.Stop()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = slow.Submit(Item{Key: uint64(i)})
		}(i)
	}
	wg.Wait()
	if time.Since(start) < 20*time.Millisecond {
		t.Error("submitters were not backpressured by the slow scheduler")
	}
}
