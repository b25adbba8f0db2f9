// Command sdg-kv serves the SDG key/value store over TCP, demonstrating
// the library behind a real network protocol. The wire format is
// length-prefixed frames carrying a 1-byte opcode:
//
//	0x01 PUT  key(8 bytes BE) value(rest)   -> 0x00 OK
//	0x02 GET  key(8 bytes BE)               -> 0x00 value | 0x01 not found
//	0x03 DEL  key(8 bytes BE)               -> 0x00 was-present(1 byte)
//
// Usage:
//
//	sdg-kv -listen 127.0.0.1:7070 -partitions 4
//	sdg-kv -demo            # start a server, run a scripted client, exit
//
// With -workers, the process runs as a distributed coordinator instead of
// hosting the store itself: the graph is deployed to the listed sdg-worker
// processes, requests route to workers by key, and checkpointing pulls
// worker snapshots over the wire on the -checkpoint interval:
//
//	sdg-worker -listen 127.0.0.1:7071 &
//	sdg-worker -listen 127.0.0.1:7072 &
//	sdg-kv -listen 127.0.0.1:7070 -workers 127.0.0.1:7071,127.0.0.1:7072
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

const (
	opPut = 0x01
	opGet = 0x02
	opDel = 0x03

	respOK       = 0x00
	respNotFound = 0x01
	respError    = 0xff
)

// kvStore is the opcode handler's view of the kv deployment: either an
// in-process runtime (kv.KV) or a coordinator fronting remote workers.
type kvStore interface {
	Put(key uint64, value []byte, timeout time.Duration) error
	Get(key uint64, timeout time.Duration) ([]byte, error)
	Delete(key uint64, timeout time.Duration) (bool, error)
}

// distStore adapts a Coordinator to the store interface.
type distStore struct {
	coord *runtime.Coordinator
}

func (d *distStore) Put(key uint64, value []byte, timeout time.Duration) error {
	_, err := d.coord.Call("put", key, value, timeout)
	return err
}

func (d *distStore) Get(key uint64, timeout time.Duration) ([]byte, error) {
	v, err := d.coord.Call("get", key, nil, timeout)
	if err != nil || v == nil {
		return nil, err
	}
	return v.([]byte), nil
}

func (d *distStore) Delete(key uint64, timeout time.Duration) (bool, error) {
	v, err := d.coord.Call("delete", key, nil, timeout)
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// newCoordinator dials every worker (one data and one control connection
// each) and deploys the kv graph across them.
func newCoordinator(workers string, partitions, batch, snapChunk int, interval time.Duration) (*runtime.Coordinator, error) {
	var eps []runtime.WorkerEndpoint
	dial := func(addr string, timeout time.Duration) (*cluster.Client, error) {
		c, err := cluster.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetCallTimeout(timeout)
		return c, nil
	}
	for _, addr := range strings.Split(workers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		data, err := dial(addr, 30*time.Second)
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", addr, err)
		}
		ctrl, err := dial(addr, 5*time.Second)
		if err != nil {
			data.Close()
			return nil, fmt.Errorf("worker %s: %w", addr, err)
		}
		// Addr lets peer workers dial each other directly for any cut
		// dataflow edges; the kv graph has none today, but the coordinator
		// needs the addresses on file before it can place edged graphs.
		eps = append(eps, runtime.WorkerEndpoint{Addr: addr, Data: data, Control: ctrl})
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("-workers lists no addresses")
	}
	coord, err := runtime.NewCoordinator("kv", eps, runtime.CoordOptions{
		Partitions:     map[string]int{"store": partitions},
		BatchSize:      batch,
		SnapChunkBytes: snapChunk,
		OnFailure: func(w int) {
			fmt.Fprintf(os.Stderr, "sdg-kv: worker %d failed; its keys queue for replay until recovery\n", w)
		},
	})
	if err != nil {
		return nil, err
	}
	if interval > 0 {
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for range ticker.C {
				if err := coord.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "sdg-kv: checkpoint:", err)
				}
			}
		}()
	}
	return coord, nil
}

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:7070", "TCP listen address")
		partitions   = flag.Int("partitions", 2, "store partitions (with -workers: the global total, sharded across workers)")
		batch        = flag.Int("batch", 1, "micro-batch target for the item hot path (1 = per-item dispatch)")
		injectPolicy = flag.String("inject-policy", "block", "ingress admission policy under overload: block | shed")
		injectDL     = flag.Duration("inject-deadline", 0, "max time block admission waits before shedding (0 = forever)")
		overflowLen  = flag.Int("overflow-len", 0, "flow-control watermark in items (0 = 4 x queue length)")
		autoscale    = flag.Duration("autoscale", 0, "auto-scaler scan interval (0 = off): grows bottlenecked tasks and retires idle instances")
		minInst      = flag.Int("min-instances", 1, "auto-scaler shrink floor per task")
		maxInst      = flag.Int("max-instances", 16, "auto-scaler growth bound per task")
		highWater    = flag.Int("scale-high-water", 0, "parked-depth bottleneck threshold in items (0 = half the queue length)")
		lowWater     = flag.Int("scale-low-water", 0, "backlog at or below this is idle; sustained idleness scales the task back in")
		ftInterval   = flag.Duration("checkpoint", 10*time.Second, "checkpoint interval (0 = off)")
		delta        = flag.Bool("delta", true, "incremental (delta) checkpoints: serialise only keys changed since the last epoch")
		workers      = flag.String("workers", "", "comma-separated sdg-worker addresses; when set, run as a distributed coordinator instead of hosting the store in-process")
		snapChunk    = flag.Int("snap-chunk-bytes", 0, "max encoded bytes per streamed snapshot chunk pulled from workers (0 = 1 MiB default)")
		demo         = flag.Bool("demo", false, "run a scripted demo client and exit")
	)
	flag.Parse()

	var st kvStore
	var banner string
	if *workers != "" {
		coord, err := newCoordinator(*workers, *partitions, *batch, *snapChunk, *ftInterval)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-kv:", err)
			os.Exit(1)
		}
		defer coord.Close()
		st = &distStore{coord: coord}
		banner = fmt.Sprintf("coordinating %d-partition store across %d workers (checkpoint interval: %v)",
			*partitions, coord.Workers(), *ftInterval)
	} else {
		mode := checkpoint.ModeAsync
		if *ftInterval <= 0 {
			mode = checkpoint.ModeOff
			*ftInterval = time.Hour
		}
		var policy runtime.InjectPolicy
		switch *injectPolicy {
		case "block":
			policy = runtime.InjectBlock
		case "shed":
			policy = runtime.InjectShed
		default:
			fmt.Fprintf(os.Stderr, "sdg-kv: unknown -inject-policy %q (want block or shed)\n", *injectPolicy)
			os.Exit(2)
		}
		store, err := kv.New(kv.Config{
			Partitions: *partitions,
			Runtime: runtime.Options{
				Mode:             mode,
				Interval:         *ftInterval,
				BatchSize:        *batch,
				InjectPolicy:     policy,
				InjectDeadline:   *injectDL,
				OverflowLen:      *overflowLen,
				DeltaCheckpoints: *delta,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdg-kv:", err)
			os.Exit(1)
		}
		defer store.Stop()

		if *autoscale > 0 {
			store.Runtime().StartAutoScale(*autoscale, runtime.ScalePolicy{
				MinInstances:   *minInst,
				MaxInstances:   *maxInst,
				QueueHighWater: *highWater,
				QueueLowWater:  *lowWater,
			})
		}
		st = store
		banner = fmt.Sprintf("serving %d-partition store (checkpointing: %v, delta: %v)",
			*partitions, mode, *delta && mode == checkpoint.ModeAsync)
	}

	srv, err := cluster.Serve(*listen, func(req []byte) ([]byte, error) {
		return handle(st, req), nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdg-kv:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("sdg-kv: %s on %s\n", banner, srv.Addr())

	if *demo {
		if err := runDemo(srv.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "sdg-kv demo:", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("sdg-kv: shutting down")
}

func handle(store kvStore, req []byte) []byte {
	if len(req) < 9 {
		return []byte{respError}
	}
	op := req[0]
	key := binary.BigEndian.Uint64(req[1:9])
	const timeout = 10 * time.Second
	switch op {
	case opPut:
		val := make([]byte, len(req)-9)
		copy(val, req[9:])
		if err := store.Put(key, val, timeout); err != nil {
			return []byte{respError}
		}
		return []byte{respOK}
	case opGet:
		val, err := store.Get(key, timeout)
		if err != nil {
			return []byte{respError}
		}
		if val == nil {
			return []byte{respNotFound}
		}
		return append([]byte{respOK}, val...)
	case opDel:
		present, err := store.Delete(key, timeout)
		if err != nil {
			return []byte{respError}
		}
		b := byte(0)
		if present {
			b = 1
		}
		return []byte{respOK, b}
	default:
		return []byte{respError}
	}
}

func runDemo(addr string) error {
	cl, err := cluster.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	put := func(key uint64, val string) error {
		req := make([]byte, 9+len(val))
		req[0] = opPut
		binary.BigEndian.PutUint64(req[1:9], key)
		copy(req[9:], val)
		resp, err := cl.Call(req)
		if err != nil {
			return err
		}
		if resp[0] != respOK {
			return fmt.Errorf("put %d failed: %x", key, resp[0])
		}
		return nil
	}
	get := func(key uint64) (string, bool, error) {
		req := make([]byte, 9)
		req[0] = opGet
		binary.BigEndian.PutUint64(req[1:9], key)
		resp, err := cl.Call(req)
		if err != nil {
			return "", false, err
		}
		if resp[0] == respNotFound {
			return "", false, nil
		}
		return string(resp[1:]), true, nil
	}

	for i := uint64(0); i < 100; i++ {
		if err := put(i, fmt.Sprintf("value-%d", i)); err != nil {
			return err
		}
	}
	for i := uint64(0); i < 100; i += 25 {
		v, ok, err := get(i)
		if err != nil {
			return err
		}
		fmt.Printf("  get %-3d -> %q (found=%v)\n", i, v, ok)
	}
	if _, ok, _ := get(999); ok {
		return fmt.Errorf("key 999 should be absent")
	}
	fmt.Println("sdg-kv demo: 100 puts + reads over TCP completed")
	return nil
}
