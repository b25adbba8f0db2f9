// Package metrics provides the measurement primitives used by the SDG
// runtime and the experiment harness: atomic counters, throughput meters,
// percentile reservoirs with candlestick summaries (the paper reports the
// 5th/25th/50th/75th/95th percentiles) and simple time series.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Reservoir records integer-valued samples and reports their maximum and
// nearest-rank percentiles. Memory stays bounded by reservoir sampling, and
// the full reservoir is allocated up front so Record never allocates: the
// runtime records once per processed micro-batch and once per Call, and
// must not put allocations back on the hot path it is measuring.
type Reservoir[T ~int64] struct {
	mu      sync.Mutex
	samples []T
	n       int64 // total observations, including evicted ones
	max     T
	rng     uint64 // xorshift state for reservoir eviction
}

// Histogram records durations (latencies, pauses).
type Histogram = Reservoir[time.Duration]

// Distribution records dimensionless samples (batch sizes, waits in ns).
type Distribution = Reservoir[int64]

// defaultCap bounds the retained samples when a constructor is given a
// capacity <= 0.
const defaultCap = 1 << 15

// NewHistogram returns a duration reservoir retaining at most capacity
// samples (1<<15 if capacity <= 0).
func NewHistogram(capacity int) *Histogram { return newReservoir[time.Duration](capacity) }

// NewDistribution returns an int64 reservoir retaining at most capacity
// samples (1<<15 if capacity <= 0).
func NewDistribution(capacity int) *Distribution { return newReservoir[int64](capacity) }

func newReservoir[T ~int64](capacity int) *Reservoir[T] {
	if capacity <= 0 {
		capacity = defaultCap
	}
	return &Reservoir[T]{samples: make([]T, 0, capacity), rng: 0x9e3779b97f4a7c15}
}

// Record adds one sample.
func (r *Reservoir[T]) Record(v T) {
	r.mu.Lock()
	r.n++
	if v > r.max {
		r.max = v
	}
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
	} else {
		// Reservoir sampling: replace a random slot with probability cap/n.
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		if idx := r.rng % uint64(r.n); idx < uint64(len(r.samples)) {
			r.samples[idx] = v
		}
	}
	r.mu.Unlock()
}

// Count reports the total number of recorded samples.
func (r *Reservoir[T]) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Max reports the largest recorded sample, or 0 if none.
func (r *Reservoir[T]) Max() T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// Percentile reports the p-th percentile (0 <= p <= 100) over the retained
// samples, or 0 if none.
func (r *Reservoir[T]) Percentile(p float64) T {
	return r.Percentiles(p)[0]
}

// Percentiles reports several percentiles in one pass, sorting the
// retained samples once. Each is the nearest rank: the smallest sample
// whose cumulative frequency reaches p%, i.e. 1-based rank ceil(p*N/100)
// (p50 of [1,2,3,4] is 2).
func (r *Reservoir[T]) Percentiles(ps ...float64) []T {
	out := make([]T, len(ps))
	r.mu.Lock()
	sorted := slices.Clone(r.samples)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return out
	}
	slices.Sort(sorted)
	for i, p := range ps {
		rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
		out[i] = sorted[min(max(rank, 0), len(sorted)-1)]
	}
	return out
}

// Candlestick is the five-number summary the paper's plots use.
type Candlestick struct {
	P5, P25, P50, P75, P95 time.Duration
}

// Candlestick reports the 5th/25th/50th/75th/95th percentiles, read as
// durations.
func (r *Reservoir[T]) Candlestick() Candlestick {
	p := r.Percentiles(5, 25, 50, 75, 95)
	return Candlestick{
		P5: time.Duration(p[0]), P25: time.Duration(p[1]), P50: time.Duration(p[2]),
		P75: time.Duration(p[3]), P95: time.Duration(p[4]),
	}
}

// String renders the candlestick compactly for harness output.
func (c Candlestick) String() string {
	return fmt.Sprintf("p5=%v p25=%v p50=%v p75=%v p95=%v", c.P5, c.P25, c.P50, c.P75, c.P95)
}
