package state

import (
	"encoding/binary"
	"math"
)

// The chunk wire format is a hand-rolled binary encoding: uvarints for
// counts and keys, fixed 64-bit floats. It is ~5x faster than encoding/gob
// at the MB-scale checkpoints the experiments move around, and it has no
// per-chunk type dictionary, so chunks can be split and re-merged freely.

type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func newEncoder(sizeHint int) *encoder {
	return &encoder{buf: make([]byte, 0, sizeHint)}
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *encoder) float64(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func newDecoder(b []byte) *decoder { return &decoder{buf: b} }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrBadChunk
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bytes() []byte {
	if d.err != nil {
		return nil
	}
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Compared against what remains, so a length near 2^64 cannot wrap
	// the bound and reach make.
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}

func (d *decoder) done() bool { return d.err == nil && d.off >= len(d.buf) }
