package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. Root spans wrap a driver
// call into the coordinator; child spans wrap one frame exchange on a
// link. Req is the root span's id, shared by everything it caused.
type span struct {
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"` // Coordinator.Call roots: the entry called
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"` // request + reply, link spans only
	Err     bool   `json:"err,omitempty"`   // the exchange returned an error
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary; a traced run
// switches recording on after its untraced baseline phase.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	// open maps a goroutine id to the root span it is inside. The
	// coordinator sends frames on the goroutine that called it, which is
	// the only thing tying a link span to its cause without changing the
	// program under test.
	open sync.Map

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded is every span so far. A frame that was in flight when recording
// was switched off (a heartbeat) may still append; that lands beyond the
// returned slice's length and capacity.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

// root runs f inside a root span; op names the entry a Call went to.
func (t *tracer) root(name, op string, f func()) {
	if !t.active() {
		f()
		return
	}
	id := t.ids.Add(1)
	g := goid()
	t.open.Store(g, id)
	start := time.Since(t.epoch)
	f()
	end := time.Since(t.epoch)
	t.open.Delete(g)
	t.add(span{Name: name, Op: op, ID: id, Req: id, StartNs: int64(start), EndNs: int64(end)})
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). About a microsecond; traced runs only.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// write dumps every span as a JSON array, one span per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, s := range t.spans {
		if i > 0 {
			buf.WriteString(",\n")
		}
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// linkCounters totals the traffic of one class of links. They are on in
// every run: net_bytes_per_op is an end-to-end metric.
type linkCounters struct {
	frames atomic.Int64
	bytes  atomic.Int64 // request + reply payload bytes
}

// link decorates a cluster.Transport with byte counting and, in traced
// runs, one child span per exchange named <class>:<message type>.
type link struct {
	inner cluster.Transport
	class string // "data", "ctrl" or "peer"
	n     *linkCounters
	tr    *tracer
}

func (l *link) Call(req []byte) ([]byte, error) {
	traced := l.tr.active()
	var start time.Duration
	if traced {
		start = time.Since(l.tr.epoch)
	}
	resp, err := l.inner.Call(req)
	size := len(req) + len(resp)
	l.n.frames.Add(1)
	l.n.bytes.Add(int64(size))
	if !traced {
		return resp, err
	}
	end := time.Since(l.tr.epoch)
	name := l.class + ":?"
	if len(req) > 0 {
		name = l.class + ":" + wire.MsgName(req[0])
	}
	// Still on the caller's goroutine, so its root is still open.
	var parent uint64
	if p, ok := l.tr.open.Load(goid()); ok {
		parent = p.(uint64)
	}
	l.tr.add(span{Name: name, ID: l.tr.ids.Add(1), Parent: parent, Req: parent,
		StartNs: int64(start), EndNs: int64(end), Bytes: size, Err: err != nil})
	return resp, err
}

func (l *link) Close() error { return l.inner.Close() }
