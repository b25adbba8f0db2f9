package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := h.Percentile(95); got != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", got)
	}
	if got := h.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("p0 = %v, want 1ms", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
}

func TestHistogramCandlestick(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	c := h.Candlestick()
	want := Candlestick{
		P5:  5 * time.Millisecond,
		P25: 25 * time.Millisecond,
		P50: 50 * time.Millisecond,
		P75: 75 * time.Millisecond,
		P95: 95 * time.Millisecond,
	}
	if c != want {
		t.Errorf("candlestick = %+v, want %+v", c, want)
	}
	if c.String() == "" {
		t.Error("String() empty")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("empty stats should be 0")
	}
	if (h.Candlestick() != Candlestick{}) {
		t.Error("empty candlestick should be zero")
	}
}

func TestHistogramCountMax(t *testing.T) {
	h := NewHistogram(0)
	h.Record(2 * time.Millisecond)
	h.Record(6 * time.Millisecond)
	h.Record(4 * time.Millisecond)
	if got := h.Max(); got != 6*time.Millisecond {
		t.Errorf("max = %v, want 6ms", got)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(i))
	}
	if got := len(h.samples); got != 64 {
		t.Errorf("retained %d samples, want 64", got)
	}
	if got := h.Count(); got != 10_000 {
		t.Errorf("count = %d, want 10000", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("value = %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestMeterRate(t *testing.T) {
	m := NewMeter()
	m.Mark(100)
	time.Sleep(20 * time.Millisecond)
	r := m.Rate()
	if r <= 0 {
		t.Errorf("rate = %f, want > 0", r)
	}
	if m.Count() != 100 {
		t.Errorf("count = %d, want 100", m.Count())
	}
	if m.Elapsed() <= 0 {
		t.Error("elapsed should be positive")
	}
	m.Reset()
	if m.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries()
	ts.RecordAt(time.Second, 1.0)
	ts.RecordAt(2*time.Second, 2.0)
	ts.Record(3.0)
	pts := ts.Points()
	if len(pts) != 3 || ts.Len() != 3 {
		t.Fatalf("len = %d, want 3", len(pts))
	}
	if pts[0].Value != 1.0 || pts[1].At != 2*time.Second {
		t.Errorf("unexpected points: %+v", pts)
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution(64)
	if d.Count() != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty distribution not zero")
	}
	for i := int64(1); i <= 100; i++ {
		d.Record(i)
	}
	if d.Count() != 100 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.Max() != 100 {
		t.Fatalf("max = %d", d.Max())
	}
	// Reservoir keeps the retained set bounded by capacity.
	if p := d.Percentile(0); p < 1 {
		t.Fatalf("p0 = %d", p)
	}
	if p := d.Percentile(100); p > 100 {
		t.Fatalf("p100 = %d", p)
	}
}

func TestDistributionPercentiles(t *testing.T) {
	d := NewDistribution(256)
	if got := d.Percentiles(50, 99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty percentiles = %v", got)
	}
	for i := int64(1); i <= 200; i++ {
		d.Record(i)
	}
	got := d.Percentiles(0, 50, 95, 100)
	if got[0] != 1 || got[3] != 200 {
		t.Fatalf("p0/p100 = %d/%d, want 1/200", got[0], got[3])
	}
	// The multi-percentile read must agree with the single-percentile path.
	for i, p := range []float64{0, 50, 95, 100} {
		if want := d.Percentile(p); got[i] != want {
			t.Fatalf("Percentiles p%.0f = %d, Percentile = %d", p, got[i], want)
		}
	}
}

// TestDistributionNearestRank pins the documented nearest-rank definition,
// rank = ceil(p*N/100), on the boundary cases where the old truncating
// formula landed one sample high (p50 of [1,2,3,4] reported 3, not 2).
func TestDistributionNearestRank(t *testing.T) {
	record := func(vals ...int64) *Distribution {
		d := NewDistribution(256)
		for _, v := range vals {
			d.Record(v)
		}
		return d
	}
	// Even N: p50 is the N/2-th value.
	if got := record(1, 2, 3, 4).Percentile(50); got != 2 {
		t.Errorf("p50 of [1,2,3,4] = %d, want 2", got)
	}
	// Odd N: p50 is the middle value.
	if got := record(1, 2, 3).Percentile(50); got != 2 {
		t.Errorf("p50 of [1,2,3] = %d, want 2", got)
	}
	// N=100: p99 is the 99th value, not the 100th.
	d := NewDistribution(256)
	for i := int64(1); i <= 100; i++ {
		d.Record(i)
	}
	if got := d.Percentile(99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := d.Percentile(50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	// A single sample is every percentile.
	if got := record(7).Percentile(50); got != 7 {
		t.Errorf("p50 of [7] = %d, want 7", got)
	}
	// Tiny p never rounds below the first sample.
	if got := record(1, 2, 3, 4).Percentile(1); got != 1 {
		t.Errorf("p1 of [1,2,3,4] = %d, want 1", got)
	}
	// Agreement with Histogram's (already ceil-based) nearest rank.
	h := NewHistogram(256)
	for _, v := range []int64{1, 2, 3, 4} {
		h.Record(time.Duration(v))
	}
	if hp, dp := h.Percentile(50), record(1, 2, 3, 4).Percentile(50); int64(hp) != dp {
		t.Errorf("histogram p50 %d != distribution p50 %d", hp, dp)
	}
}

func TestDistributionRecordSteadyStateNoAlloc(t *testing.T) {
	// The runtime records one sample per micro-batch; the pre-allocated
	// reservoir keeps that off the allocation profile it measures.
	d := NewDistribution(128)
	allocs := testing.AllocsPerRun(200, func() { d.Record(7) })
	if allocs != 0 {
		t.Errorf("Record allocated %.1f times", allocs)
	}
}

// TestReservoirRecordNoAlloc: Record never allocates after construction,
// neither while the reservoir fills nor once it evicts. The runtime records
// a duration per Call and a size per micro-batch on its hot path.
func TestReservoirRecordNoAlloc(t *testing.T) {
	h := NewHistogram(64)
	if allocs := testing.AllocsPerRun(50, func() { h.Record(time.Millisecond) }); allocs != 0 {
		t.Errorf("Histogram.Record while filling allocated %.1f times", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { h.Record(time.Millisecond) }); allocs != 0 {
		t.Errorf("Histogram.Record while evicting allocated %.1f times", allocs)
	}
	d := NewDistribution(0)
	if allocs := testing.AllocsPerRun(200, func() { d.Record(7) }); allocs != 0 {
		t.Errorf("Distribution.Record allocated %.1f times", allocs)
	}
}
