package cf

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
	"repro/internal/wire/flat"
	"repro/internal/workload"
)

const testTimeout = 5 * time.Second

func TestGraphValidatesAndAllocates(t *testing.T) {
	g := Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a := g.Allocate()
	if a.Nodes != 3 {
		t.Fatalf("CF allocates to %d nodes, paper's Fig. 1 shows 3", a.Nodes)
	}
}

func TestRecommendationsReflectCoOccurrence(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// User 1 rates items 10 and 20; user 2 rates items 10 and 30.
	ratings := []struct{ u, i, r int }{
		{1, 10, 5}, {1, 20, 4},
		{2, 10, 5}, {2, 30, 3},
	}
	for _, r := range ratings {
		if err := c.AddRating(r.u, r.i, r.r); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	// User 1's recommendations: item 30 co-occurs with item 10 (user 2
	// rated both), so it must appear in user 1's merged vector.
	rec, err := c.GetRec(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if rec[30] <= 0 {
		t.Fatalf("rec[30] = %f; co-occurrence with item 10 not captured (rec=%v)", rec[30], rec)
	}
	// A user with no ratings gets an empty recommendation, not an error.
	empty, err := c.GetRec(99, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range empty {
		if v != 0 {
			t.Fatalf("user 99 rec[%d] = %f, want empty", i, v)
		}
	}
}

func TestPartialCoOccMergesAcrossReplicas(t *testing.T) {
	c, err := New(Config{UserPartitions: 2, CoOccReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	gen := workload.NewRatingGen(7, 50, 30)
	for i := 0; i < 300; i++ {
		r := gen.Next()
		if err := c.AddRating(r.User, r.Item, r.Rating); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	// The Zipf head user rated many items; its merged recommendation must
	// be non-empty even though updates were spread over 3 replicas.
	rec, err := c.GetRec(0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("merged recommendation empty despite many ratings")
	}
	if got := c.Runtime().StateInstances("coOcc"); got != 3 {
		t.Fatalf("coOcc replicas = %d", got)
	}
	if got := c.Runtime().StateInstances("userItem"); got != 2 {
		t.Fatalf("userItem partitions = %d", got)
	}
}

func TestCFSurvivesCoOccFailure(t *testing.T) {
	c, err := New(Config{Runtime: runtime.Options{
		Mode:     checkpoint.ModeAsync,
		Interval: time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for u := 1; u <= 5; u++ {
		for i := 10; i <= 14; i++ {
			_ = c.AddRating(u, i, 5)
		}
	}
	if !c.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	before, err := c.GetRec(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Runtime().CheckpointNow("coOcc", 0); err != nil {
		t.Fatal(err)
	}
	// Kill the node hosting coOcc and recover it.
	var coNode int
	for _, se := range c.Runtime().Stats().SEs {
		if se.Name == "coOcc" {
			coNode = se.Nodes[0]
		}
	}
	c.Runtime().KillNode(coNode)
	if _, err := c.Runtime().Recover("coOcc", 1); err != nil {
		t.Fatal(err)
	}
	if !c.Runtime().Drain(testTimeout) {
		t.Fatal("drain after recovery")
	}
	after, err := c.GetRec(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recommendation changed across recovery: %v vs %v", before, after)
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("rec[%d] = %f after recovery, want %f", k, after[k], v)
		}
	}
}

// TestPayloadsRoundTrip: every cf payload crosses the flat codec unchanged,
// nil rows included. PartialRec and Recommendation are map aliases and
// ride the codec's own map[int64]float64 tag.
func TestPayloadsRoundTrip(t *testing.T) {
	for _, v := range []any{
		RatingMsg{User: 1, Item: -2, Rating: 5},
		RatingMsg{},
		CoUpdateMsg{Item: 7, Row: map[int64]float64{3: 1, -1: 0.5}},
		CoUpdateMsg{Item: 7, Row: map[int64]float64{}},
		CoUpdateMsg{},
		RecReqMsg{User: 42},
		UserVecMsg{User: 3, Row: map[int64]float64{1 << 40: 2}},
		UserVecMsg{},
		PartialRec{10: 1.5},
		Recommendation(nil),
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
