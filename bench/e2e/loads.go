package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/runtime"
)

const (
	valueBytes  = 128
	ingestBatch = 256
	// preloadBatch is the batch size used to fill state during set-up; it
	// is larger than the measured batch so set-up stays short.
	preloadBatch = 1024
)

// load is a workload's operation mix together with the driver-side oracle
// that says what every reply and the final state must be.
type load interface {
	// preload writes every key once, so state size stays constant while
	// the run measures.
	preload() error
	op(c, n int) (units int)
	// verify compares the deployment's final state with the oracle and
	// returns the number of keys that differ.
	verify() (checked, wrong int64, err error)
	// failures is the number of ops so far that returned an error or a
	// reply the oracle rejects; firstFailure describes the first of them.
	failures() int64
	firstFailure() string
}

// failLog counts failed ops and keeps the first one's description.
type failLog struct {
	bad   atomic.Int64
	first atomic.Pointer[string]
}

func (f *failLog) fail(format string, args ...any) {
	f.bad.Add(1)
	f.first.CompareAndSwap(nil, ptr(fmt.Sprintf(format, args...)))
}

func (f *failLog) failures() int64 { return f.bad.Load() }

func (f *failLog) firstFailure() string {
	if p := f.first.Load(); p != nil {
		return *p
	}
	return ""
}

func ptr[T any](v T) *T { return &v }

// splitmix is the value generator: deterministic, cheap, and seeded per
// (key, version) so a get's reply can be checked without storing values.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillValue writes the value of (key, version) into dst.
func fillValue(dst []byte, key uint64, version uint32) {
	x := key<<20 ^ uint64(version)
	for i := 0; i+8 <= len(dst); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// kvLoad drives the kv graph with a 50/50 get/put mix on uniform keys.
// Caller c of n touches only keys congruent to c modulo n, so each key has
// one writer at a time and the oracle (a version per key) is exact.
type kvLoad struct {
	failLog
	coord *runtime.Coordinator
	tr    *tracer
	keys  int
	ver   []uint32
	rng   []*rand.Rand
	want  [][]byte // per-caller scratch for the expected value
}

func newKVLoad(coord *runtime.Coordinator, keys, callers int, seed int64, tr *tracer) *kvLoad {
	l := &kvLoad{coord: coord, tr: tr, keys: keys, ver: make([]uint32, keys)}
	for c := 0; c < callers; c++ {
		l.rng = append(l.rng, rand.New(rand.NewSource(seed*1000+int64(c))))
		l.want = append(l.want, make([]byte, valueBytes))
	}
	return l
}

func (l *kvLoad) preload() error {
	items := make([]runtime.InjectItem, 0, preloadBatch)
	for k := 0; k < l.keys; k++ {
		v := make([]byte, valueBytes)
		l.ver[k] = 1
		fillValue(v, uint64(k), 1)
		items = append(items, runtime.InjectItem{Key: uint64(k), Value: v})
		if len(items) == preloadBatch || k == l.keys-1 {
			if err := l.coord.InjectBatch("put", items); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			items = items[:0]
		}
	}
	if !l.coord.Drain(60 * time.Second) {
		return fmt.Errorf("preload: deployment did not quiesce")
	}
	return nil
}

func (l *kvLoad) op(c, n int) int {
	r := l.rng[c]
	k := uint64(r.Intn(l.keys/n)*n + c)
	if r.Int63()&1 == 0 {
		var got any
		var err error
		l.tr.root("Coordinator.Call", "get", func() { got, err = l.coord.Call("get", k, nil, 0) })
		if err != nil {
			l.fail("get %d: %v", k, err)
			return 1
		}
		fillValue(l.want[c], k, l.ver[k])
		if b, ok := got.([]byte); !ok || !bytes.Equal(b, l.want[c]) {
			l.fail("get %d: reply differs from version %d", k, l.ver[k])
		}
		return 1
	}
	// The value must be a fresh slice: the coordinator's replay log keeps
	// the item until a checkpoint covers it.
	v := make([]byte, valueBytes)
	fillValue(v, k, l.ver[k]+1)
	var got any
	var err error
	l.tr.root("Coordinator.Call", "put", func() { got, err = l.coord.Call("put", k, v, 0) })
	if err != nil {
		l.fail("put %d: %v", k, err)
		return 1
	}
	l.ver[k]++
	if got != true {
		l.fail("put %d: reply %v", k, got)
	}
	return 1
}

func (l *kvLoad) verify() (int64, int64, error) {
	dump, err := l.coord.DumpKV("store")
	if err != nil {
		return 0, 0, err
	}
	var wrong int64
	if len(dump) != l.keys {
		wrong++
	}
	want := make([]byte, valueBytes)
	for k := 0; k < l.keys; k++ {
		fillValue(want, uint64(k), l.ver[k])
		if !bytes.Equal(dump[uint64(k)], want) {
			wrong++
		}
	}
	return int64(l.keys), wrong, nil
}

// ingestLoad drives counterchain with fire-and-forget batches. The oracle
// is the driver's own histogram: after Drain every key's counter must
// equal the number of times it was sent, kills included.
type ingestLoad struct {
	failLog
	coord *runtime.Coordinator
	tr    *tracer
	keys  int
	hist  []uint32
	rng   []*rand.Rand
	batch [][]runtime.InjectItem
}

func newIngestLoad(coord *runtime.Coordinator, keys, callers int, seed int64, tr *tracer) *ingestLoad {
	l := &ingestLoad{coord: coord, tr: tr, keys: keys, hist: make([]uint32, keys)}
	for c := 0; c < callers; c++ {
		l.rng = append(l.rng, rand.New(rand.NewSource(seed*1000+int64(c))))
		l.batch = append(l.batch, make([]runtime.InjectItem, ingestBatch))
	}
	return l
}

func (l *ingestLoad) preload() error {
	items := make([]runtime.InjectItem, 0, preloadBatch)
	for k := 0; k < l.keys; k++ {
		l.hist[k]++
		items = append(items, runtime.InjectItem{Key: uint64(k)})
		if len(items) == preloadBatch || k == l.keys-1 {
			if err := l.coord.InjectBatch("ingest", items); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			items = items[:0]
		}
	}
	if !l.coord.Drain(60 * time.Second) {
		return fmt.Errorf("preload: deployment did not quiesce")
	}
	return nil
}

func (l *ingestLoad) op(c, n int) int {
	r, items := l.rng[c], l.batch[c]
	for i := range items {
		k := r.Intn(l.keys/n)*n + c
		l.hist[k]++
		items[i].Key = uint64(k)
	}
	var err error
	l.tr.root("Coordinator.InjectBatch", "", func() { err = l.coord.InjectBatch("ingest", items) })
	if err != nil {
		l.fail("inject: %v", err)
	}
	return len(items)
}

func (l *ingestLoad) verify() (int64, int64, error) {
	if !l.coord.Drain(60 * time.Second) {
		return 0, 0, fmt.Errorf("verify: deployment did not quiesce")
	}
	dump, err := l.coord.DumpKV("counts")
	if err != nil {
		return 0, 0, err
	}
	var wrong, missing, surplus int64
	if len(dump) != l.keys {
		wrong++
	}
	for k := 0; k < l.keys; k++ {
		got, want := counter.Count(dump[uint64(k)]), uint64(l.hist[k])
		if got < want {
			wrong++
			missing += int64(want - got)
		} else if got > want {
			wrong++
			surplus += int64(got - want)
		}
	}
	if wrong > 0 {
		l.first.CompareAndSwap(nil, ptr(fmt.Sprintf("final counts: %d of %d keys differ (%d increments lost, %d duplicated)",
			wrong, l.keys, missing, surplus)))
	}
	return int64(l.keys), wrong, nil
}
