package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Read and Write calls made on a connection and
// records the last deadline set on it.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64

	mu        sync.Mutex
	deadlines int
	deadline  time.Time
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// Write counts before writing, so the count is in place by the time the
// peer can see the bytes.
func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlines++
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *countingConn) lastDeadline() (int, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlines, c.deadline
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// serveCounted serves h on the server end of a loopback connection whose
// calls are counted, and returns a Client on the other end whose calls are
// counted too.
func serveCounted(t *testing.T, h Handler) (cl *Client, cc, sc *countingConn) {
	t.Helper()
	c, s := tcpPair(t)
	cc, sc = &countingConn{Conn: c}, &countingConn{Conn: s}
	srv := &Server{handler: h, conns: map[net.Conn]struct{}{}}
	srv.wg.Add(1)
	go srv.serveConn(sc)
	t.Cleanup(srv.wg.Wait)
	return &Client{conn: cc, br: bufio.NewReaderSize(cc, connBufSize)}, cc, sc
}

// TestCallOneWriteEachWay pins the frame cost: one Client.Call issues
// exactly one request Write, and the server exactly one reply Write — on
// the healthy path, for an error reply, and for the error reply that
// stands in for an oversized one.
func TestCallOneWriteEachWay(t *testing.T) {
	huge := make([]byte, MaxFrameSize)
	cl, cc, sc := serveCounted(t, func(req []byte) ([]byte, error) {
		switch string(req) {
		case "bad":
			return nil, errors.New("rejected")
		case "huge":
			return huge, nil // one status byte past the frame bound
		}
		return append([]byte("ok:"), req...), nil
	})
	defer cl.Close()
	cl.SetCallTimeout(10 * time.Second)
	for _, tc := range []struct {
		req  string
		want error
	}{
		{"ping", nil},
		{"bad", ErrRemote},
		{"huge", ErrRemote},
		{"pong", nil},
	} {
		w0, s0 := cc.writes.Load(), sc.writes.Load()
		_, err := cl.Call([]byte(tc.req))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.req, err, tc.want)
		}
		if n := cc.writes.Load() - w0; n != 1 {
			t.Errorf("%s: client issued %d request writes, want 1", tc.req, n)
		}
		if n := sc.writes.Load() - s0; n != 1 {
			t.Errorf("%s: server issued %d reply writes, want 1", tc.req, n)
		}
	}
	// Back-to-back calls share one armed deadline instead of setting and
	// clearing one per call.
	n0, _ := cc.lastDeadline()
	for i := 0; i < 100; i++ {
		if _, err := cl.Call([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := cc.lastDeadline(); n-n0 > 2 {
		t.Fatalf("100 calls under a 10s timeout set the deadline %d times", n-n0)
	}
}

// TestReadsAreBuffered: N small frames written back to back reach the
// server in far fewer than the 2N reads an unbuffered header-then-body
// parse costs.
func TestReadsAreBuffered(t *testing.T) {
	const n = 64
	c, s := tcpPair(t)
	sc := &countingConn{Conn: s}
	srv := &Server{handler: func(req []byte) ([]byte, error) { return req, nil }, conns: map[net.Conn]struct{}{}}
	srv.wg.Add(1)
	go srv.serveConn(sc)
	defer srv.wg.Wait()
	defer c.Close()

	var batch bytes.Buffer
	for i := 0; i < n; i++ {
		if err := WriteFrame(&batch, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for i := 0; i < n; i++ {
		resp, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp[0] != statusOK || resp[1] != byte(i) {
			t.Fatalf("reply %d = %x", i, resp)
		}
	}
	if r := sc.reads.Load(); r > n/4 {
		t.Fatalf("%d frames took %d reads", n, r)
	}
}

// TestReadFrameRefusesOversizedBeforeAllocation: a length prefix above
// MaxFrameSize is refused without allocating its payload, through a
// buffered reader as through a bare one.
func TestReadFrameRefusesOversizedBeforeAllocation(t *testing.T) {
	const n = 50
	frame := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	binary.BigEndian.PutUint32(frame, MaxFrameSize+1)
	readers := make([]*bufio.Reader, n)
	for i := range readers {
		readers[i] = bufio.NewReaderSize(bytes.NewReader(frame), 16)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range readers {
		if _, err := ReadFrame(r); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("%d refused frames allocated %d bytes", n, grew)
	}
}

// TestCallTimeoutBound: a server that never replies fails the call with
// ErrCallTimeout, no sooner than the timeout and (watchdog) not long after
// timeout+deadlineSlack.
func TestCallTimeoutBound(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c, _ := tcpPair(t) // the server end never reads or replies
	cl := &Client{conn: c, br: bufio.NewReaderSize(c, connBufSize)}
	cl.SetCallTimeout(timeout)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call([]byte("hello"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("err = %v, want ErrCallTimeout", err)
		}
		if time.Since(start) < timeout {
			t.Fatalf("call failed after %v, before its %v timeout", time.Since(start), timeout)
		}
	case <-time.After(timeout + deadlineSlack + 2*time.Second):
		t.Fatal("call still blocked long past timeout+deadlineSlack")
	}
}

// TestStaleDeadlineNeverFires: after an idle gap longer than the timeout
// plus the slack, the armed deadline lies in the past; a fresh call must
// re-arm it rather than fail at once.
func TestStaleDeadlineNeverFires(t *testing.T) {
	cl, _, _ := serveCounted(t, func(req []byte) ([]byte, error) { return req, nil })
	defer cl.Close()
	const timeout = 20 * time.Millisecond
	cl.SetCallTimeout(timeout)
	for i := 0; i < 2; i++ {
		if _, err := cl.Call([]byte("x")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		time.Sleep(timeout + deadlineSlack + 20*time.Millisecond)
	}
}

// TestCallTimeoutZeroClearsDeadline: SetCallTimeout(0) after a non-zero
// timeout leaves the connection without a deadline, so a reply slower than
// the old bound still arrives.
func TestCallTimeoutZeroClearsDeadline(t *testing.T) {
	const timeout = 20 * time.Millisecond
	cl, cc, _ := serveCounted(t, func(req []byte) ([]byte, error) {
		if string(req) == "slow" {
			time.Sleep(timeout + deadlineSlack + 50*time.Millisecond)
		}
		return req, nil
	})
	defer cl.Close()
	cl.SetCallTimeout(timeout)
	if _, err := cl.Call([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, d := cc.lastDeadline(); d.IsZero() {
		t.Fatal("a call under a timeout armed no deadline")
	}
	cl.SetCallTimeout(0)
	if _, err := cl.Call([]byte("slow")); err != nil {
		t.Fatalf("slow call without a timeout: %v", err)
	}
	if _, d := cc.lastDeadline(); !d.IsZero() {
		t.Fatalf("deadline %v left armed after SetCallTimeout(0)", d)
	}
}
