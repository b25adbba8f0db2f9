package checkpoint

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/state"
)

// TestChunkWriteAllocCount guards the encodeChunk fix: streaming a chunk to
// a backup disk must not rebuild header+data into a fresh slice. The only
// payload-sized allocation allowed is the disk's own internal copy, so the
// write path stays at <= 2 allocations per chunk regardless of chunk size
// (the old path added a third, payload-sized one).
func TestChunkWriteAllocCount(t *testing.T) {
	disk := cluster.NewDisk(0, 0)
	c := state.Chunk{Type: state.TypeKVMap, Index: 1, Of: 2, Data: make([]byte, 1<<20)}
	allocs := testing.AllocsPerRun(50, func() {
		hdr := chunkHeader(c)
		disk.WriteParts("bench/chunk", hdr[:], c.Data)
	})
	if allocs > 2 {
		t.Fatalf("chunk write path allocates %.1f times per op, want <= 2", allocs)
	}
}

// BenchmarkChunkWrite records ns/op, B/op and allocs/op of streaming one
// 1 MB chunk to a modelled disk — the hot inner loop of Backup.Save.
func BenchmarkChunkWrite(b *testing.B) {
	disk := cluster.NewDisk(0, 0)
	c := state.Chunk{Type: state.TypeKVMap, Index: 1, Of: 2, Data: make([]byte, 1<<20)}
	b.SetBytes(int64(len(c.Data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr := chunkHeader(c)
		disk.WriteParts("bench/chunk", hdr[:], c.Data)
	}
}

func benchStore(b *testing.B, backend string, keys int) state.Store {
	b.Helper()
	var st state.Store
	if backend == "sharded" {
		st = state.NewShardedKVMap(0)
	} else {
		st = state.NewKVMap()
	}
	st.EnableDeltaTracking()
	kv := st.(state.KV)
	val := make([]byte, 64)
	for i := 0; i < keys; i++ {
		kv.Put(uint64(i), val)
	}
	return st
}

// BenchmarkSaveFullEpoch measures a full checkpoint epoch (serialise +
// backup + merge) on a 20k-key store.
func BenchmarkSaveFullEpoch(b *testing.B) {
	for _, backend := range []string{"kvmap", "sharded"} {
		b.Run(backend, func(b *testing.B) {
			cl := cluster.New(2, cluster.Config{})
			bk := NewBackup(cl, []*cluster.Node{cl.Node(0), cl.Node(1)})
			st := benchStore(b, backend, 20_000)
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := async(st, Meta{SE: "b/0", Epoch: uint64(i + 1)}, bk)
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Bytes
			}
			b.ReportMetric(float64(bytes), "payloadB/epoch")
		})
	}
}

// BenchmarkSaveDeltaEpoch measures a delta epoch at 1% churn on the same
// store size; compare payloadB/epoch against BenchmarkSaveFullEpoch.
func BenchmarkSaveDeltaEpoch(b *testing.B) {
	for _, backend := range []string{"kvmap", "sharded"} {
		b.Run(backend, func(b *testing.B) {
			cl := cluster.New(2, cluster.Config{})
			bk := NewBackup(cl, []*cluster.Node{cl.Node(0), cl.Node(1)})
			st := benchStore(b, backend, 20_000)
			kv := st.(state.KV)
			if _, err := async(st, Meta{SE: "b/0", Epoch: 1}, bk); err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 64)
			ep := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				if i%16 == 15 {
					// Compact off-clock so the chain (and disk usage) stays
					// bounded at long bench times.
					b.StopTimer()
					ep++
					if _, err := async(st, Meta{SE: "b/0", Epoch: ep}, bk); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for j := 0; j < 200; j++ { // 1% of 20k
					kv.Put(uint64((i*200+j*13)%20_000), val)
				}
				ep++
				res, err := async(st, Meta{SE: "b/0", Epoch: ep, Delta: true}, bk)
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Bytes
			}
			b.ReportMetric(float64(bytes), "payloadB/epoch")
		})
	}
}

// BenchmarkTrackedPut measures the hot-path cost of changed-key tracking:
// the same put loop with tracking off and on.
func BenchmarkTrackedPut(b *testing.B) {
	for _, tracked := range []bool{false, true} {
		b.Run(fmt.Sprintf("tracked=%v", tracked), func(b *testing.B) {
			st := state.NewKVMap()
			if tracked {
				st.EnableDeltaTracking()
			}
			val := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Put(uint64(i%100_000), val)
			}
		})
	}
}
