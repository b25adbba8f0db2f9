package metrics

import (
	"math"
	"sort"
	"sync"
)

// Distribution records dimensionless int64 samples (batch sizes, queue
// depths) and reports summary statistics. Like Histogram it bounds memory
// with reservoir sampling, but it pre-allocates the full reservoir so the
// steady-state Record path never allocates — the runtime records one
// sample per processed micro-batch and must not put allocations back on
// the hot path it is measuring. It deliberately mirrors Histogram's
// reservoir scheme; if the shared eviction/percentile logic ever changes,
// change both (folding them onto one generic core is known debt).
type Distribution struct {
	mu      sync.Mutex
	samples []int64
	cap     int
	n       int64 // total observations, including evicted ones
	max     int64
	rng     uint64 // xorshift state for reservoir eviction
}

// DefaultDistributionCap bounds retained samples per distribution.
const DefaultDistributionCap = 1 << 14

// NewDistribution returns a distribution retaining at most capacity
// samples. If capacity <= 0, DefaultDistributionCap is used.
func NewDistribution(capacity int) *Distribution {
	if capacity <= 0 {
		capacity = DefaultDistributionCap
	}
	return &Distribution{
		samples: make([]int64, 0, capacity),
		cap:     capacity,
		rng:     0x9e3779b97f4a7c15,
	}
}

func (d *Distribution) next() uint64 {
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	return d.rng
}

// Record adds one sample.
func (d *Distribution) Record(v int64) {
	d.mu.Lock()
	d.n++
	if v > d.max {
		d.max = v
	}
	if len(d.samples) < d.cap {
		d.samples = append(d.samples, v)
	} else if idx := d.next() % uint64(d.n); idx < uint64(d.cap) {
		d.samples[idx] = v
	}
	d.mu.Unlock()
}

// Count reports the total number of recorded samples.
func (d *Distribution) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Max reports the largest recorded sample, or 0 if none.
func (d *Distribution) Max() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Percentile reports the p-th percentile (0 <= p <= 100) over retained
// samples using nearest-rank on a sorted copy.
func (d *Distribution) Percentile(p float64) int64 {
	return d.Percentiles(p)[0]
}

// Percentiles reports several percentiles in one pass, sorting the
// retained samples once instead of once per call.
func (d *Distribution) Percentiles(ps ...float64) []int64 {
	out := make([]int64, len(ps))
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.samples) == 0 {
		return out
	}
	sorted := make([]int64, len(d.samples))
	copy(sorted, d.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[len(sorted)-1]
		default:
			// Nearest-rank: the smallest sample whose cumulative frequency
			// reaches p%, i.e. 1-based rank ceil(p*N/100). Truncating instead
			// of ceiling would shift every non-boundary percentile one sample
			// high (p50 of [1,2,3,4] would report 3, not 2).
			rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= len(sorted) {
				rank = len(sorted) - 1
			}
			out[i] = sorted[rank]
		}
	}
	return out
}
