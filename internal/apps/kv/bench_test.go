package kv

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
)

// Hand-written (compiled) task functions: the counterpart to the
// translator's interpreted benches.
func BenchmarkKVPut(b *testing.B) {
	s, err := New(Config{Partitions: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(uint64(i%8192), val, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVGet(b *testing.B) {
	s, err := New(Config{Partitions: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	for i := 0; i < 8192; i++ {
		if err := s.Put(uint64(i), make([]byte, 64), 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(uint64(i%8192), 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: put throughput with fault tolerance off vs async vs sync
// checkpointing at a steady cadence.
func BenchmarkKVPutByFTMode(b *testing.B) {
	modes := []struct {
		name string
		mode checkpoint.Mode
	}{
		{"noFT", checkpoint.ModeOff},
		{"async", checkpoint.ModeAsync},
		{"sync", checkpoint.ModeSync},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			s, err := New(Config{Partitions: 1, Runtime: runtime.Options{
				Mode:     m.mode,
				Interval: 50 * time.Millisecond,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			val := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(uint64(i%4096), val, 30*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: recovery time by restore width on a fixed checkpoint.
func BenchmarkKVRecoveryWidth(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("restore=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := New(Config{Partitions: 1, Runtime: runtime.Options{
					Mode:     checkpoint.ModeAsync,
					Interval: time.Hour,
				}})
				if err != nil {
					b.Fatal(err)
				}
				for k := uint64(0); k < 2000; k++ {
					if err := s.Put(k, make([]byte, 128), 30*time.Second); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Runtime().CheckpointNow("store", 0); err != nil {
					b.Fatal(err)
				}
				node := s.Runtime().Stats().SEs[0].Nodes[0]
				s.Runtime().KillNode(node)
				b.StartTimer()
				if _, err := s.Runtime().Recover("store", n); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Stop()
			}
		})
	}
}
