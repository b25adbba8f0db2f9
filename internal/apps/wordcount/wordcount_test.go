package wordcount

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/wire/flat"
	"repro/internal/workload"
)

const testTimeout = 5 * time.Second

func TestCountsWithinWindow(t *testing.T) {
	w, err := New(Config{Window: time.Hour, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	base := time.Now()
	_ = w.FeedAt([]string{"a", "b", "a"}, base)
	_ = w.FeedAt([]string{"a", "c"}, base)
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	if got := w.Counts("a"); got != 3 {
		t.Fatalf("count(a) = %d, want 3", got)
	}
	if got := w.Counts("b"); got != 1 {
		t.Fatalf("count(b) = %d, want 1", got)
	}
	if got := w.Counts("zzz"); got != 0 {
		t.Fatalf("count(zzz) = %d, want 0", got)
	}
}

func TestWindowRotationFlushes(t *testing.T) {
	var mu sync.Mutex
	var reports []WindowReport
	w, err := New(Config{
		Window:     100 * time.Millisecond,
		Partitions: 1,
		OnReport: func(r WindowReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	base := time.Unix(1000, 0)
	// Three lines in window 1, then one line in window 2 triggers a flush.
	_ = w.FeedAt([]string{"x", "y"}, base)
	_ = w.FeedAt([]string{"x"}, base.Add(10*time.Millisecond))
	_ = w.FeedAt([]string{"y", "y"}, base.Add(20*time.Millisecond))
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	_ = w.FeedAt([]string{"z"}, base.Add(150*time.Millisecond))
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v, want exactly 1 flush", reports)
	}
	if reports[0].DistinctWords != 2 || reports[0].TotalCount != 5 {
		t.Fatalf("flushed window = %+v, want 2 distinct, 5 total", reports[0])
	}
	// The new window only holds z.
	if got := w.Counts("z"); got != 1 {
		t.Fatalf("count(z) = %d", got)
	}
	if got := w.Counts("x"); got != 0 {
		t.Fatalf("count(x) = %d after rotation, want 0", got)
	}
}

func TestLateItemsDropped(t *testing.T) {
	w, err := New(Config{Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	base := time.Unix(2000, 0)
	_ = w.FeedAt([]string{"new"}, base.Add(500*time.Millisecond))
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	_ = w.FeedAt([]string{"old"}, base) // belongs to a closed window
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	if got := w.Counts("old"); got != 0 {
		t.Fatalf("late item counted: %d", got)
	}
	if got := w.Counts("new"); got != 1 {
		t.Fatalf("count(new) = %d", got)
	}
}

func TestZipfStreamAcrossPartitions(t *testing.T) {
	w, err := New(Config{Window: time.Hour, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	gen := workload.NewTextGen(11, 200)
	var fed int
	base := time.Now()
	for i := 0; i < 100; i++ {
		line := gen.Line(20)
		fed += len(line)
		_ = w.FeedAt(line, base)
	}
	if !w.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	// Head word of the Zipf vocabulary must dominate.
	if got := w.Counts("w00000"); got < 100 {
		t.Fatalf("head word count = %d, want heavy", got)
	}
	// Split TE emitted one item per word.
	if got := w.Runtime().Processed("count"); got != int64(fed) {
		t.Fatalf("count TE processed %d items, want %d", got, fed)
	}
}

// TestPayloadsRoundTrip: every wordcount payload crosses the flat codec
// unchanged, nil and empty word lists kept apart.
func TestPayloadsRoundTrip(t *testing.T) {
	for _, v := range []any{
		LineMsg{Words: []string{"the", "", "quick"}, AtNS: 1_700_000_000_000_000_000},
		LineMsg{Words: []string{}, AtNS: -1},
		LineMsg{},
		WordMsg{Word: "fox", Window: 3},
		WordMsg{},
		WindowReport{Window: 9, DistinctWords: 4, TotalCount: 1 << 40},
		WindowReport{},
	} {
		got, err := flat.RoundTripValue(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%T changed across the codec: %#v -> %#v", v, v, got)
		}
	}
}
