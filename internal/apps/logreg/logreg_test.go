package logreg

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/wire/flat"
	"repro/internal/workload"
)

const testTimeout = 10 * time.Second

func TestGraphValidates(t *testing.T) {
	g := Graph(8, 0.1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("zero dimension should fail")
	}
}

func TestTrainsToGoodAccuracySingleWorker(t *testing.T) {
	lr, err := New(Config{Dim: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Stop()
	gen := workload.NewPointGen(5, 10, 0.01)
	train := gen.Batch(4000)
	for i := 0; i < len(train); i += 100 {
		if err := lr.Train(train[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if !lr.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	acc, err := lr.Accuracy(gen.Batch(1000), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("accuracy = %f, want >= 0.85", acc)
	}
}

func TestPartialWeightsSyncAcrossWorkers(t *testing.T) {
	lr, err := New(Config{Dim: 10, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Stop()
	gen := workload.NewPointGen(5, 10, 0.01)
	// Two epochs with a sync between them: replicas diverge while training
	// (one-to-any batches), then reconcile by averaging.
	for epoch := 0; epoch < 2; epoch++ {
		train := gen.Batch(3000)
		for i := 0; i < len(train); i += 100 {
			if err := lr.Train(train[i : i+100]); err != nil {
				t.Fatal(err)
			}
		}
		if !lr.Runtime().Drain(testTimeout) {
			t.Fatal("drain")
		}
		if _, err := lr.Sync(testTimeout); err != nil {
			t.Fatal(err)
		}
		if !lr.Runtime().Drain(testTimeout) {
			t.Fatal("drain after sync")
		}
	}
	acc, err := lr.Accuracy(gen.Batch(1000), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("3-worker accuracy = %f, want >= 0.8", acc)
	}
	// After sync + broadcast write-back, all replicas hold the same model.
	w0, err := lr.Sync(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	w1, err := lr.Sync(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w0 {
		if diff := w0[i] - w1[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("weights differ at %d after back-to-back syncs: %f vs %f", i, w0[i], w1[i])
		}
	}
	if got := lr.Runtime().StateInstances("weights"); got != 3 {
		t.Fatalf("weight replicas = %d", got)
	}
}

// TestPayloadsRoundTrip: every logreg payload crosses the flat codec
// unchanged, nil and empty rows and weight vectors kept apart.
func TestPayloadsRoundTrip(t *testing.T) {
	for _, v := range []any{
		BatchMsg{X: [][]float64{{1, -2.5}, nil, {}}, Y: []float64{1, -1, 1}},
		BatchMsg{X: [][]float64{}, Y: []float64{}},
		BatchMsg{},
		SyncMsg{},
		WeightsMsg{W: []float64{0.5, 0, -3}},
		WeightsMsg{W: []float64{}},
		WeightsMsg{},
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
