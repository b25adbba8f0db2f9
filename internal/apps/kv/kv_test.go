package kv

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
	"repro/internal/workload"
)

const testTimeout = 5 * time.Second

func TestPutGetDelete(t *testing.T) {
	s, err := New(Config{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Put(1, []byte("one"), testTimeout); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(1, testTimeout)
	if err != nil || string(v) != "one" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if v, err := s.Get(2, testTimeout); err != nil || v != nil {
		t.Fatalf("missing get = %q, %v", v, err)
	}
	ok, err := s.Delete(1, testTimeout)
	if err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	ok, err = s.Delete(1, testTimeout)
	if err != nil || ok {
		t.Fatalf("second delete = %v, %v", ok, err)
	}
	if s.StateBytes() != 0 {
		t.Fatalf("state bytes = %d after delete", s.StateBytes())
	}
}

func TestWorkloadDriven(t *testing.T) {
	s, err := New(Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	gen := workload.NewKVGen(3, 500, 0, 32) // all writes
	shadow := map[uint64][]byte{}
	for i := 0; i < 1000; i++ {
		op := gen.Next()
		if err := s.Put(op.Key, op.Value, testTimeout); err != nil {
			t.Fatal(err)
		}
		shadow[op.Key] = op.Value
	}
	for k, want := range shadow {
		got, err := s.Get(k, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("key %d mismatch", k)
		}
	}
	if s.StateBytes() <= 0 {
		t.Fatal("state bytes should be positive")
	}
}

func TestAsyncPutThroughputPath(t *testing.T) {
	s, err := New(Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for k := uint64(0); k < 500; k++ {
		if err := s.PutAsync(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	for k := uint64(0); k < 500; k += 50 {
		v, err := s.Get(k, testTimeout)
		if err != nil || v == nil {
			t.Fatalf("get %d after async puts: %v %v", k, v, err)
		}
	}
}

func TestKVRecoveryEndToEnd(t *testing.T) {
	s, err := New(Config{Runtime: runtime.Options{
		Mode:     checkpoint.ModeAsync,
		Interval: time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for k := uint64(0); k < 200; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Runtime().CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(200); k < 250; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", k)), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	node := s.Runtime().Stats().SEs[0].Nodes[0]
	s.Runtime().KillNode(node)
	stats, err := s.Runtime().Recover("store", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewNodes != 2 {
		t.Fatalf("recovery = %+v", stats)
	}
	if !s.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	for k := uint64(0); k < 250; k++ {
		v, err := s.Get(k, testTimeout)
		if err != nil || v == nil {
			t.Fatalf("get %d after recovery: %v %v", k, v, err)
		}
		if want := fmt.Sprintf("v%d", k); string(v) != want {
			t.Fatalf("get %d = %q", k, v)
		}
	}
}
