package main

import (
	"sync"
	"time"

	"repro/internal/cluster"
)

// blockLen is the slice a phase is cut into. work_per_s is the median
// block rate: a block holds one of whatever periodic event the workload
// has (a checkpoint), so systematic stalls count and a one-off host hiccup
// moves a single block, not the reported figure. One-second windows on a
// 2-core box swing 7k–17k calls/s as the scheduler flips coordinator and
// worker between same-core and cross-core wake-ups; 2 s blocks average
// enough of those flips.
const blockLen = 2 * time.Second

// openGrace is how far past its scheduled end an open phase may run before
// the remaining ops are abandoned: long enough to ride out a host that is
// several times slower than usual, short enough to keep a run inside the
// driver's per-run limit.
const openGrace = 45 * time.Second

// opFunc issues one operation on behalf of caller c of n and returns how
// many units of work it carried (1 call, or the items of one batch).
// Errors and wrong replies are counted by the load itself.
type opFunc func(c, n int) (units int)

// phase is what one measured phase observed.
type phase struct {
	dur    time.Duration
	block  time.Duration // blockLen, or the whole phase when that is shorter
	ops    int64
	units  int64
	blocks []float64 // units completed in each block, in time order
	lat    durs      // per op; open phases count from the intended send time
	lag    durs      // open phases: actual minus intended send time
	missed int64     // open phases: ops the schedule called for but the phase had no time to send
}

func (p phase) blockRates() []float64 {
	out := make([]float64, len(p.blocks))
	for i, n := range p.blocks {
		out[i] = n / p.block.Seconds()
	}
	return out
}

// blocksOf cuts a phase into whole blocks; a phase shorter than a block
// (the smoke test's) is one block.
func blocksOf(dur time.Duration) (block time.Duration, n int) {
	if dur < blockLen {
		return dur, 1
	}
	return blockLen, int(dur / blockLen)
}

// closedPhase runs callers goroutines for dur, each issuing its next op
// when the last returns. atBlock, when set, is called by caller 0 at the
// start of every block, inline, so whatever it stalls is charged to the
// block it stalls.
func closedPhase(callers int, dur time.Duration, op opFunc, atBlock func()) phase {
	block, nblocks := blocksOf(dur)
	per := make([]phase, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			p.blocks = make([]float64, nblocks)
			seen := -1
			for {
				t0 := time.Now()
				b := int(t0.Sub(start) / block)
				if t0.Sub(start) >= dur {
					return
				}
				if c == 0 && atBlock != nil && b != seen {
					seen = b
					atBlock()
					t0 = time.Now()
				}
				units := op(c, callers)
				t1 := time.Now()
				p.lat = append(p.lat, float64(t1.Sub(t0)))
				p.ops++
				p.units += int64(units)
				if done := int(t1.Sub(start) / block); done < nblocks {
					p.blocks[done] += float64(units)
				}
			}
		}(c)
	}
	wg.Wait()
	out := phase{dur: time.Since(start), block: block, blocks: make([]float64, nblocks)}
	for _, p := range per {
		out.ops += p.ops
		out.units += p.units
		out.lat = append(out.lat, p.lat...)
		for i, n := range p.blocks {
			out.blocks[i] += n
		}
	}
	return out
}

// openPhase sends ops on a fixed schedule of rate per second for dur from
// one goroutine that busy-waits and never sleeps: a sleeping sender times
// the VM's idle wake-up (0.37–0.50 ms p50 measured against 0.12–0.14 ms
// spinning) instead of the system. Latency runs from the intended send
// time, so a stall is charged to every op it delays. A system slower than
// the offered rate (a host stall can do that for seconds) falls behind and
// catches up, or runs long; only when it is openGrace behind the end of its
// schedule is the rest given up and reported as missed.
func openPhase(rate float64, dur time.Duration, op opFunc, atBlock func()) phase {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	block, nblocks := blocksOf(dur)
	out := phase{block: block, blocks: make([]float64, nblocks), lat: make(durs, 0, total), lag: make(durs, 0, total)}
	start := time.Now()
	seen := -1
	for i := 0; i < total; i++ {
		due := time.Duration(i) * interval
		if b := int(due / block); atBlock != nil && b != seen {
			seen = b
			for time.Since(start) < due {
			}
			atBlock()
		}
		now := time.Since(start)
		for now < due {
			now = time.Since(start)
		}
		if now > dur+openGrace {
			out.missed = int64(total - i)
			break
		}
		units := op(0, 1)
		done := time.Since(start)
		out.lat = append(out.lat, float64(done-due))
		out.lag = append(out.lag, float64(now-due))
		out.ops++
		out.units += int64(units)
		if b := int(done / block); b < nblocks {
			out.blocks[b] += float64(units)
		}
	}
	out.dur = time.Since(start)
	return out
}

// canary measures the host, not the program: a fixed integer loop and a
// burst of 128-byte echoes over a bare cluster.Serve/Dial pair in this
// process. Taken before and after every phase and kept as a series, it
// lets a reader tell host drift from program change when two sets of runs
// disagree.
type canary struct {
	srv *cluster.Server
	cl  *cluster.Client
	req []byte

	spinNs []float64
	rttUs  []float64
}

func newCanary() (*canary, error) {
	srv, err := cluster.Serve("127.0.0.1:0", func(req []byte) ([]byte, error) { return req, nil })
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &canary{srv: srv, cl: cl, req: make([]byte, 128)}, nil
}

func (c *canary) close() {
	c.cl.Close()
	c.srv.Close()
}

var spinSink uint64

// spin times a fixed xorshift loop; the result is stored so the compiler
// keeps the loop.
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(start)
}

// echo times n round trips of req and returns each in nanoseconds.
func echo(cl cluster.Transport, req []byte, n int) (durs, error) {
	out := make(durs, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := cl.Call(req); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0)))
	}
	return out, nil
}

// sample appends one reading of each canary to the series.
func (c *canary) sample() {
	c.spinNs = append(c.spinNs, float64(spin()))
	if rtts, err := echo(c.cl, c.req, 1000); err == nil {
		c.rttUs = append(c.rttUs, median(rtts)/1e3)
	}
}
