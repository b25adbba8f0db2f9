package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/workload"
)

// preloadEntryOverhead is preloadKV's per-entry accounting beyond the
// value: key plus bookkeeping.
const preloadEntryOverhead = 56

// preloadKV fills the store's partitions directly (white-box) to the target
// aggregate size, bypassing the request path so experiment setup stays fast.
func preloadKV(app *kv.KV, targetBytes int64, valueSize int) uint64 {
	parts := app.Runtime().StateInstances("store")
	var key uint64
	entries := targetBytes / int64(valueSize+preloadEntryOverhead)
	for i := int64(0); i < entries; i++ {
		idx := state.PartitionKey(key, parts)
		st, err := app.Runtime().StateStore("store", idx)
		if err != nil {
			break
		}
		st.(state.KV).Put(key, make([]byte, valueSize))
		key++
	}
	return key
}

// driveKV runs an open-loop mixed workload against the store for the
// scale's point duration and reports (throughput req/s, latency candles).
func driveKV(app *kv.KV, readFrac float64, valueSize int, keySpace uint64, scale Scale) (float64, metrics.Candlestick) {
	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < scale.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewKVGen(int64(1000+c), keySpace, readFrac, valueSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				var err error
				if op.Read {
					_, err = app.Get(op.Key, 10*time.Second)
				} else {
					err = app.Put(op.Key, op.Value, 10*time.Second)
				}
				if err == nil {
					ops.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(scale.PointDuration)
	close(stop)
	wg.Wait()
	return float64(ops.Load()) / scale.PointDuration.Seconds(), app.Runtime().CallLatency.Candlestick()
}

// mb renders a byte count in MB.
func mb(b int64) string {
	return f2(float64(b) / (1 << 20))
}
