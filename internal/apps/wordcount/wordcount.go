// Package wordcount implements the streaming wordcount application of §6.1
// ("WC reports the word frequencies over a wall clock time window"). Lines
// are split by a stateless TE and the (word, 1) pairs are hash-partitioned
// to counting TEs holding per-window counts in a partitioned KVMap. When a
// TE instance observes an item belonging to a newer window it flushes its
// partition's counts downstream and rotates the state — so the window size
// controls the granularity of state updates, which is the variable Fig. 8
// sweeps.
package wordcount

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

// Payloads.
type (
	// LineMsg is one input line of text with its arrival timestamp.
	LineMsg struct {
		Words []string
		AtNS  int64
	}
	// WordMsg is one (word, window) pair.
	WordMsg struct {
		Word   string
		Window uint64
	}
	// WindowReport is the flushed summary of one window partition.
	WindowReport struct {
		Window        uint64
		DistinctWords int
		TotalCount    uint64
	}
)

// Flat codec tags of the wordcount payloads; DESIGN.md "Wire format"
// lists every application tag.
const (
	tagLineMsg uint64 = 5 + iota
	tagWordMsg
	tagWindowReport
)

func (LineMsg) FlatTag() uint64      { return tagLineMsg }
func (WordMsg) FlatTag() uint64      { return tagWordMsg }
func (WindowReport) FlatTag() uint64 { return tagWindowReport }

func (m LineMsg) AppendFlat(e *flat.Encoder) error {
	e.NilableCount(len(m.Words), m.Words == nil)
	for _, w := range m.Words {
		e.Str(w)
	}
	e.Varint(m.AtNS)
	return nil
}

func (m WordMsg) AppendFlat(e *flat.Encoder) error {
	e.Str(m.Word)
	e.Uvarint(m.Window)
	return nil
}

func (m WindowReport) AppendFlat(e *flat.Encoder) error {
	e.Uvarint(m.Window)
	e.Varint(int64(m.DistinctWords))
	e.Uvarint(m.TotalCount)
	return nil
}

func init() {
	flat.RegisterPayload(tagLineMsg, func(d *flat.Decoder) any {
		var m LineMsg
		if n, ok := d.NilableCount(1); ok {
			m.Words = make([]string, n)
			for i := range m.Words {
				m.Words[i] = d.Str()
			}
		}
		m.AtNS = d.Varint()
		return m
	})
	flat.RegisterPayload(tagWordMsg, func(d *flat.Decoder) any {
		return WordMsg{Word: d.Str(), Window: d.Uvarint()}
	})
	flat.RegisterPayload(tagWindowReport, func(d *flat.Decoder) any {
		return WindowReport{Window: d.Uvarint(), DistinctWords: int(d.Varint()), TotalCount: d.Uvarint()}
	})
}

func hashWord(w string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w))
	return h.Sum64()
}

// Graph builds the WC SDG for a given window size.
func Graph(window time.Duration) *core.Graph {
	g := core.NewGraph("wordcount")
	counts := g.AddSE("counts", core.KindPartitioned, state.TypeKVMap, nil)

	split := g.AddTE("split", func(ctx core.Context, it core.Item) {
		msg := it.Value.(LineMsg)
		win := uint64(msg.AtNS / int64(window))
		for _, w := range msg.Words {
			ctx.Emit(0, hashWord(w), WordMsg{Word: w, Window: win})
		}
	}, nil, true)

	count := g.AddTE("count", func(ctx core.Context, it core.Item) {
		msg := it.Value.(WordMsg)
		kvm := ctx.Store().(state.KV)
		// Window rotation: a newer window flushes and clears this partition.
		const winKey = ^uint64(0) // sentinel slot holding the current window
		curWin := uint64(0)
		if v, ok := kvm.Get(winKey); ok && len(v) == 8 {
			curWin = leUint64(v)
		}
		if msg.Window > curWin {
			if curWin > 0 || kvm.NumEntries() > 1 {
				distinct := 0
				var total uint64
				kvm.ForEach(func(k uint64, v []byte) bool {
					if k == winKey || len(v) != 8 {
						return true
					}
					distinct++
					total += leUint64(v)
					return true
				})
				ctx.Emit(0, 0, WindowReport{Window: curWin, DistinctWords: distinct, TotalCount: total})
			}
			kvm.Clear()
			kvm.Put(winKey, lePut(msg.Window))
			curWin = msg.Window
		} else if msg.Window < curWin {
			return // late item from a closed window: dropped
		}
		slot := it.Key
		var c uint64
		if v, ok := kvm.Get(slot); ok && len(v) == 8 {
			c = leUint64(v)
		}
		kvm.Put(slot, lePut(c+1))
	}, &core.Access{SE: counts, Mode: core.AccessByKey}, false)

	sink := g.AddTE("report", func(ctx core.Context, it core.Item) {
		if h := reportHook.Load(); h != nil {
			(*h)(it.Value.(WindowReport))
		}
	}, nil, false)

	g.Connect(split, count, core.DispatchPartitioned)
	g.Connect(count, sink, core.DispatchOneToAny)
	return g
}

// reportHook lets the driver observe flushed windows without polling state.
var reportHook hookPtr

type hookPtr struct {
	mu sync.Mutex
	fn *func(WindowReport)
}

func (p *hookPtr) Load() *func(WindowReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fn
}

func (p *hookPtr) Store(fn *func(WindowReport)) {
	p.mu.Lock()
	p.fn = fn
	p.mu.Unlock()
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func lePut(v uint64) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)}
}

// WC is a deployed streaming wordcount.
type WC struct {
	rt     *runtime.Runtime
	window time.Duration
}

// Config sizes the deployment.
type Config struct {
	// Window is the wall-clock aggregation window.
	Window time.Duration
	// Partitions spreads the counts SE.
	Partitions int
	// OnReport observes flushed windows.
	OnReport func(WindowReport)
	Runtime  runtime.Options
}

// New deploys the WC SDG.
func New(cfg Config) (*WC, error) {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.OnReport != nil {
		fn := cfg.OnReport
		reportHook.Store(&fn)
	} else {
		reportHook.Store(nil)
	}
	opts := cfg.Runtime
	if opts.Partitions == nil {
		opts.Partitions = map[string]int{}
	}
	opts.Partitions["counts"] = cfg.Partitions
	rt, err := runtime.Deploy(Graph(cfg.Window), opts)
	if err != nil {
		return nil, fmt.Errorf("wordcount: %w", err)
	}
	return &WC{rt: rt, window: cfg.Window}, nil
}

// Feed ingests one line of text stamped with the current wall clock.
func (w *WC) Feed(words []string) error {
	return w.rt.Inject("split", 0, LineMsg{Words: words, AtNS: time.Now().UnixNano()})
}

// FeedAt ingests a line with an explicit timestamp (deterministic tests).
func (w *WC) FeedAt(words []string, at time.Time) error {
	return w.rt.Inject("split", 0, LineMsg{Words: words, AtNS: at.UnixNano()})
}

// Counts sums the live (current-window) counts for a word across
// partitions.
func (w *WC) Counts(word string) uint64 {
	slot := hashWord(word)
	var total uint64
	n := w.rt.StateInstances("counts")
	for i := 0; i < n; i++ {
		st, err := w.rt.StateStore("counts", i)
		if err != nil {
			continue
		}
		if v, ok := st.(state.KV).Get(slot); ok && len(v) == 8 {
			total += leUint64(v)
		}
	}
	return total
}

// Runtime exposes the underlying runtime for experiments.
func (w *WC) Runtime() *runtime.Runtime { return w.rt }

// Stop shuts the deployment down.
func (w *WC) Stop() { w.rt.Stop() }
