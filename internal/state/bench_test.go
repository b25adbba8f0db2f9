package state

import (
	"fmt"
	"sync"
	"testing"
)

// Ablation: dirty mode on vs off. The overlay costs one extra map on the
// write path; the paper's design bet is that this is far cheaper than
// blocking writes during snapshots.
func BenchmarkKVMapPutClean(b *testing.B) {
	m := NewKVMap()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(uint64(i%8192), val)
	}
}

func BenchmarkKVMapPutDirty(b *testing.B) {
	m := NewKVMap()
	val := make([]byte, 64)
	for i := 0; i < 8192; i++ {
		m.Put(uint64(i), val)
	}
	if err := m.BeginDirty(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(uint64(i%8192), val)
	}
	b.StopTimer()
	if _, err := m.MergeDirty(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKVMapGet(b *testing.B) {
	m := NewKVMap()
	for i := 0; i < 8192; i++ {
		m.Put(uint64(i), make([]byte, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i % 8192))
	}
}

// Ablation: checkpoint chunk-bound sweep. Smaller chunks spread over more
// backup nodes; this measures the serialisation cost of producing them.
func BenchmarkKVMapCheckpointStream(b *testing.B) {
	for _, maxBytes := range []int{16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("maxBytes=%d", maxBytes), func(b *testing.B) {
			m := NewKVMap()
			for i := 0; i < 20000; i++ {
				m.Put(uint64(i), make([]byte, 128))
			}
			b.SetBytes(int64(20000 * 128))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := streamAll(m, maxBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSplitChunk(b *testing.B) {
	m := NewKVMap()
	for i := 0; i < 20000; i++ {
		m.Put(uint64(i), make([]byte, 128))
	}
	chunks, err := streamAll(m, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(chunks[0].Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitChunk(chunks[0], 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVMapRestore(b *testing.B) {
	m := NewKVMap()
	for i := 0; i < 20000; i++ {
		m.Put(uint64(i), make([]byte, 128))
	}
	chunks, err := streamAll(m, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(20000 * 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewKVMap()
		if err := r.Restore(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

// The head-to-head benchmarks run over kvImpls (shardedkv_test.go), the
// same stripe-count table the cross-cutting tests use.

// BenchmarkKVMapParallelPut compares concurrent writers against one lock
// stripe and eight. One stripe flatlines (or regresses) past one writer;
// eight scale until writers out-number cores.
func BenchmarkKVMapParallelPut(b *testing.B) {
	val := make([]byte, 64)
	for _, impl := range kvImpls {
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("impl=%s/writers=%d", impl.name, writers), func(b *testing.B) {
				m := impl.new()
				per := b.N/writers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := uint64(w) << 32
						for i := 0; i < per; i++ {
							m.Put(base|uint64(i%8192), val)
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkKVMapParallelPutTracked is BenchmarkKVMapParallelPut's
// one-writer case with and without changed-key tracking. A worker's stores
// always track (every increment of the ingest path lands here), so the
// tracker's share of a Put is a budget: record runs under the base lock the
// Put already holds and takes no lock of its own, which keeps tracked puts
// within 10 % of untracked ones. The working set is warm in both the store
// and the tracker, as between two checkpoints of a live deployment.
func BenchmarkKVMapParallelPutTracked(b *testing.B) {
	val := make([]byte, 64)
	for _, impl := range kvImpls {
		for _, tracking := range []bool{false, true} {
			b.Run(fmt.Sprintf("impl=%s/tracking=%v", impl.name, tracking), func(b *testing.B) {
				m := impl.new()
				if tracking {
					m.(DeltaStore).EnableDeltaTracking()
				}
				for i := 0; i < 8192; i++ {
					m.Put(uint64(i), val)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Put(uint64(i%8192), val)
				}
			})
		}
	}
}

// TestTrackedPutAllocs is the tracker's allocation guard: once a key is in
// the changed set, recording it again allocates nothing, so a tracked Put
// of a warm key stays allocation-free like an untracked one.
func TestTrackedPutAllocs(t *testing.T) {
	val := make([]byte, 64)
	for _, impl := range kvImpls {
		m := impl.new()
		m.(DeltaStore).EnableDeltaTracking()
		for i := 0; i < 1024; i++ {
			m.Put(uint64(i), val)
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() { m.Put(uint64(i%1024), val); i++ }); n != 0 {
			t.Errorf("%s: tracked Put of a warm key allocates %.1f times", impl.name, n)
		}
	}
}

// BenchmarkKVMapParallelMixed measures a 90/10 read/write mix, the shape of
// the paper's KV serving workload (§6.1).
func BenchmarkKVMapParallelMixed(b *testing.B) {
	val := make([]byte, 64)
	for _, impl := range kvImpls {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("impl=%s/workers=%d", impl.name, workers), func(b *testing.B) {
				m := impl.new()
				for i := uint64(0); i < 8192; i++ {
					m.Put(i, val)
				}
				per := b.N/workers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							k := uint64((i*7 + w*13) % 8192)
							if i%10 == 0 {
								m.Put(k, val)
							} else {
								m.Get(k)
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkKVMapParallelPutCheckpointed measures writer throughput while a
// background goroutine continuously checkpoints a quiescent (non-dirty)
// store — the stall the paper's design is built to avoid. At one stripe a
// chunk's encoding blocks every Put; at eight it blocks only writes to the
// stripe being encoded. The first checkpoint
// completes before the timer starts so b.N calibrates under contention.
func BenchmarkKVMapParallelPutCheckpointed(b *testing.B) {
	val := make([]byte, 128)
	for _, impl := range kvImpls {
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("impl=%s/writers=%d", impl.name, writers), func(b *testing.B) {
				m := impl.new()
				for i := uint64(0); i < 20000; i++ {
					m.Put(i, val)
				}
				stop := make(chan struct{})
				first := make(chan struct{})
				var ckWg sync.WaitGroup
				ckWg.Add(1)
				go func() {
					defer ckWg.Done()
					for n := 0; ; n++ {
						if _, err := streamAll(m, 1<<20); err != nil {
							return
						}
						if n == 0 {
							close(first)
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				<-first
				b.ResetTimer()
				per := b.N/writers + 1
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := uint64(w) << 32
						for i := 0; i < per; i++ {
							m.Put(base|uint64(i%8192), val)
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				ckWg.Wait()
			})
		}
	}
}

// BenchmarkKVMapCheckpointImpl compares snapshot serialisation at one
// stripe and at eight, streamed stripe by stripe.
func BenchmarkKVMapCheckpointImpl(b *testing.B) {
	for _, impl := range kvImpls {
		b.Run("impl="+impl.name, func(b *testing.B) {
			m := impl.new()
			for i := uint64(0); i < 20000; i++ {
				m.Put(i, make([]byte, 128))
			}
			b.SetBytes(int64(20000 * 128))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := streamAll(m, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVMapRestoreImpl compares restore at one stripe and at eight;
// both decode the chunks in order.
func BenchmarkKVMapRestoreImpl(b *testing.B) {
	src := NewKVMap()
	for i := uint64(0); i < 20000; i++ {
		src.Put(i, make([]byte, 128))
	}
	chunks, err := streamAll(src, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range kvImpls {
		b.Run("impl="+impl.name, func(b *testing.B) {
			b.SetBytes(int64(20000 * 128))
			for i := 0; i < b.N; i++ {
				r := impl.new()
				if err := r.Restore(chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMatrixAdd(b *testing.B) {
	m := NewMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(int64(i%512), int64(i%97), 1)
	}
}

func BenchmarkMatrixMulVec(b *testing.B) {
	m := NewMatrix()
	for r := int64(0); r < 512; r++ {
		for c := int64(0); c < 32; c++ {
			m.Set(r, (r+c*7)%512, 1)
		}
	}
	x := map[int64]float64{}
	for c := int64(0); c < 512; c += 3 {
		x[c] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

func BenchmarkVectorAddScaled(b *testing.B) {
	v := NewVector(1024)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
	}
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AddScaled(x, 0.001)
	}
}

func BenchmarkVectorSnapshot(b *testing.B) {
	v := NewVector(1024)
	for i := 0; i < 1024; i++ {
		v.Set(i, float64(i))
	}
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Snapshot()
	}
}
