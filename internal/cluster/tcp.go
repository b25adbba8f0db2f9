package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This file provides the real-network layer: length-prefixed message
// framing over TCP plus a minimal request/reply server. The distributed
// worker mode (cmd/sdg-worker, internal/runtime's coordinator) and the KV
// store demo (cmd/sdg-kv) run the SDG protocols over it, demonstrating that
// the in-process simulation and a wire deployment share the same protocols.
//
// Frames are bare [4-byte big-endian length][payload]. Replies additionally
// lead with one status byte inside the payload so an application-level
// handler error comes back as an error reply on a healthy stream instead of
// tearing the connection down (which the client could not distinguish from
// a dead server).

// MaxFrameSize bounds a single frame to protect against corrupt peers.
const MaxFrameSize = 64 << 20

// Reply status bytes (first payload byte of every reply frame).
const (
	statusOK  = 0x00
	statusErr = 0x01
)

// ErrFrameTooLarge is returned when an inbound frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds maximum size")

// ErrClientBroken is returned by Client.Call after an earlier call failed
// mid-frame: the connection's framing state is undefined (a partial write
// or read leaves the peer mid-frame, so the next length prefix could be
// parsed out of payload bytes), and reusing it would return garbage that
// parses. The client closes the connection on first error and every later
// call fails fast with this sticky error; callers must Dial a fresh client.
var ErrClientBroken = errors.New("cluster: client connection broken by earlier error")

// ErrClientClosed is the sticky cause recorded when Close is called: a Call
// racing (or following) Close reports ErrClientBroken wrapping this, rather
// than a raw "use of closed network connection" from the socket.
var ErrClientClosed = errors.New("cluster: client closed")

// ErrCallTimeout wraps the network timeout error when a Call exceeds the
// configured call timeout. The expiry leaves the stream mid-frame, so the
// client is also poisoned (subsequent calls return ErrClientBroken).
var ErrCallTimeout = errors.New("cluster: call timed out")

// errEmptyReply marks a protocol violation: every reply frame must carry at
// least the status byte.
var errEmptyReply = errors.New("cluster: empty reply frame (missing status byte)")

// RemoteError is an application-level error returned by the server's
// handler, carried back in an error reply frame. The connection stays
// healthy: only the request was rejected, the stream's framing is intact.
type RemoteError struct {
	Msg string
}

// Error renders the remote failure.
func (e *RemoteError) Error() string { return "cluster: remote error: " + e.Msg }

// Is reports errors.Is(err, ErrRemote) for any remote application error.
func (e *RemoteError) Is(target error) bool { return target == ErrRemote }

// ErrRemote matches any RemoteError via errors.Is, so callers can
// distinguish "the server rejected this request" from transport failures
// without string matching.
var ErrRemote = errors.New("cluster: remote error")

// connBufSize sizes each connection's read buffer, so a small frame (and
// often the frames behind it) arrives in one read, and bounds the payloads
// a writer copies behind their header into its reused write buffer.
const connBufSize = 64 << 10

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	return writeFrame(w, new([]byte), nil, payload)
}

// writeFrame writes one frame — the length prefix, lead, then payload — with
// a single Write call. A reply's lead is its status byte, so the payload is
// never copied into a status-prefixed slice. A payload up to connBufSize is
// copied behind the header into scratch, the connection's reused write
// buffer; a larger one goes out as net.Buffers, which a TCP connection
// writes with one writev, so scratch never outgrows connBufSize.
func writeFrame(w io.Writer, scratch *[]byte, lead, payload []byte) error {
	n := len(lead) + len(payload)
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := append(binary.BigEndian.AppendUint32((*scratch)[:0], uint32(n)), lead...)
	var err error
	if len(payload) > connBufSize {
		bufs := net.Buffers{buf, payload}
		_, err = bufs.WriteTo(w)
	} else {
		buf = append(buf, payload...)
		_, err = w.Write(buf)
	}
	*scratch = buf[:0]
	if err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into a fresh slice the caller
// owns (flat decode borrows from it), allocated only once the length passed
// the MaxFrameSize check. Connections read it through a bufio.Reader.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	return payload, nil
}

// Handler processes one request frame and returns the reply frame. A
// non-nil error is reported to the client as an error reply on the same
// connection; it does not terminate the connection.
type Handler func(req []byte) ([]byte, error)

// Server accepts framed request/reply connections on a TCP listener. Each
// connection is served by its own goroutine; requests on a connection are
// processed in order.
type Server struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with the given
// handler. It returns once the listener is ready.
func Serve(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.register(conn) {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// register adds an accepted connection to the tracked set, re-checking
// closed under the same critical section: a connection accepted
// concurrently with Close would otherwise be added after Close has iterated
// the map and escape the close loop, leaking past s.wg.Wait. The handler
// goroutine's wg.Add also stays ordered before acceptLoop's own wg.Done, so
// Close's Wait cannot complete while a registered conn is still being
// handed off.
func (s *Server) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	var wbuf []byte
	for {
		req, err := ReadFrame(br)
		if err != nil {
			return
		}
		resp, err := s.handler(req)
		if err != nil {
			// An application error is a reply, not a connection event: the
			// stream's framing is intact, and dropping the connection would
			// leave the client unable to tell a rejected request from a dead
			// server (and would poison its healthy stream).
			if werr := writeFrame(conn, &wbuf, []byte{statusErr}, []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		if err := writeFrame(conn, &wbuf, []byte{statusOK}, resp); err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The handler produced an unsendable reply; report that as an
				// application error rather than killing the stream (no bytes
				// were written for this frame yet).
				if werr := writeFrame(conn, &wbuf, []byte{statusErr}, []byte(err.Error())); werr == nil {
					continue
				}
			}
			return
		}
	}
}

// Close stops the listener and all connections, waiting for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Client is a framed request/reply TCP client. It serialises concurrent
// callers over one connection. A call that fails mid-frame poisons the
// stream: the connection is closed eagerly and every subsequent Call
// returns a sticky ErrClientBroken instead of misparsing the next length
// prefix out of leftover payload bytes. Application errors reported by the
// server (error replies) do not poison the stream.
type Client struct {
	mu   sync.Mutex // serialises Call; held across the request/reply round trip
	conn net.Conn
	// br, wbuf and deadline are the connection's read buffer, reused write
	// buffer and armed deadline (zero: none). Guarded by mu.
	br       *bufio.Reader
	wbuf     []byte
	deadline time.Time

	// stateMu guards broken and timeout. It is separate from mu so Close
	// and SetCallTimeout never wait behind an in-flight network round trip
	// (Close must be able to interrupt a hung Call by closing the socket).
	stateMu sync.Mutex
	broken  error // first framing error or ErrClientClosed; nil while healthy
	timeout time.Duration
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, connBufSize)}, nil
}

// deadlineSlack is how far past now+timeout Call arms the connection
// deadline, so back-to-back calls share one deadline instead of setting and
// clearing one each.
const deadlineSlack = 250 * time.Millisecond

// SetCallTimeout bounds every subsequent Call's full round trip (request
// write through reply read) via connection deadlines, to between d and
// d+deadlineSlack. A call that exceeds it fails with ErrCallTimeout and
// poisons the stream — the peer is left mid-frame, so the connection
// cannot be reused. Zero disables the bound.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.stateMu.Lock()
	c.timeout = d
	c.stateMu.Unlock()
}

// brokenErr reports the sticky failure, wrapped in ErrClientBroken, or nil.
func (c *Client) brokenErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.broken == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
}

// Call sends one request frame and waits for the reply frame. An error
// reply from the server's handler is returned as a *RemoteError (matching
// errors.Is(err, ErrRemote)) and leaves the stream healthy.
func (c *Client) Call(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.brokenErr(); err != nil {
		return nil, err
	}
	// An oversized request is rejected before any bytes hit the wire, so
	// it does not poison the stream.
	if len(req) > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	c.stateMu.Lock()
	timeout := c.timeout
	c.stateMu.Unlock()
	// One deadline spans the whole round trip: a server that accepts the
	// request but never replies (hung or partitioned) must not block the
	// caller forever while it holds c.mu, wedging every concurrent caller
	// queued behind it. The armed deadline moves only once it would fall
	// short of now+timeout, so a stale one never fires on a fresh call.
	if timeout > 0 {
		if now := time.Now(); c.deadline.Before(now.Add(timeout)) {
			c.deadline = now.Add(timeout + deadlineSlack)
			c.conn.SetDeadline(c.deadline)
		}
	} else if !c.deadline.IsZero() {
		c.deadline = time.Time{}
		c.conn.SetDeadline(c.deadline)
	}
	if err := c.fail(writeFrame(c.conn, &c.wbuf, nil, req)); err != nil {
		return nil, timeoutErr(err, timeout)
	}
	resp, err := ReadFrame(c.br)
	if err = c.fail(err); err != nil {
		return nil, timeoutErr(err, timeout)
	}
	if len(resp) == 0 {
		// Protocol violation: replies always carry a status byte. The stream
		// position is no longer trustworthy.
		return nil, c.fail(errEmptyReply)
	}
	if resp[0] != statusOK {
		return nil, &RemoteError{Msg: string(resp[1:])}
	}
	return resp[1:], nil
}

// timeoutErr wraps deadline expiries in the typed ErrCallTimeout.
func timeoutErr(err error, timeout time.Duration) error {
	var ne net.Error
	if timeout > 0 && errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w after %v: %v", ErrCallTimeout, timeout, err)
	}
	return err
}

// fail records the first mid-frame error, closing the connection so the
// peer sees the failure immediately rather than on its next read. If the
// client is already broken (an earlier error, or a concurrent Close), the
// raw socket error is replaced by the documented sticky ErrClientBroken.
// Returns nil when err is nil.
func (c *Client) fail(err error) error {
	if err == nil {
		return nil
	}
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.broken == nil {
		c.broken = err
		c.conn.Close()
		return err
	}
	return fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
}

// Close closes the connection and marks the client broken, so a Call racing
// Close returns the sticky ErrClientBroken (wrapping ErrClientClosed)
// instead of a raw "use of closed network connection". Closing the socket
// also unblocks any in-flight round trip. Close is idempotent.
func (c *Client) Close() error {
	c.stateMu.Lock()
	already := c.broken != nil
	if !already {
		c.broken = ErrClientClosed
	}
	c.stateMu.Unlock()
	err := c.conn.Close()
	if already {
		// The connection was already closed when it broke (or by an earlier
		// Close); the second close's error is noise.
		return nil
	}
	return err
}
