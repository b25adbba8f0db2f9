package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestReadFrameMalformed tables the hostile-input space for the framing
// layer: truncated headers, truncated bodies, and oversized length
// prefixes must all come back as errors — typed where the protocol defines
// one — and never panic or misparse.
func TestReadFrameMalformed(t *testing.T) {
	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, MaxFrameSize+1)

	cases := []struct {
		name  string
		input []byte
		want  error // nil = any error accepted
	}{
		{"empty", nil, io.EOF},
		{"one header byte", []byte{0x00}, io.ErrUnexpectedEOF},
		{"three header bytes", []byte{0x00, 0x00, 0x01}, io.ErrUnexpectedEOF},
		{"oversized length", oversized, ErrFrameTooLarge},
		{"truncated body", append([]byte{0, 0, 0, 10}, 1, 2, 3), io.ErrUnexpectedEOF},
		{"length with no body", []byte{0, 0, 0, 5}, io.EOF},
		{"max uint32 length", []byte{0xff, 0xff, 0xff, 0xff}, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := ReadFrame(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReadFrame(%x) = %x, want error", tc.input, payload)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame(%x) error = %v, want %v", tc.input, err, tc.want)
			}
		})
	}
}

// TestFrameRoundTrip covers the healthy path, including the empty frame
// (length 0 is legal) and multi-frame streams.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for i, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing read: got %v, want EOF", err)
	}
}

// TestWriteFrameOversized: the writer-side bound rejects before any bytes
// are emitted.
func TestWriteFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, MaxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write emitted %d bytes", buf.Len())
	}
}

// FuzzReadFrame throws arbitrary byte streams at the frame parser: it must
// either return a payload consistent with the declared length or fail with
// an error — never panic, never return a frame larger than the bound. A
// connection parses through a bufio.Reader, which must agree with the bare
// reader byte for byte.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 10, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		buffered, berr := ReadFrame(bufio.NewReaderSize(bytes.NewReader(data), 16))
		if (err == nil) != (berr == nil) || !bytes.Equal(payload, buffered) {
			t.Fatalf("bare reader: %x, %v; bufio.Reader: %x, %v", payload, err, buffered, berr)
		}
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("parsed frame of %d bytes exceeds MaxFrameSize", len(payload))
		}
		if len(data) < 4 || int(binary.BigEndian.Uint32(data[:4])) != len(payload) {
			t.Fatalf("payload length %d disagrees with header", len(payload))
		}
	})
}
