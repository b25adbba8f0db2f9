// Package flat is the hand-rolled binary codec behind the wire format:
// every message and the core.Item payload encode as uvarint/fixed fields
// and length-prefixed bytes, the same discipline as the state chunk codec,
// with no reflection walk and no per-frame type dictionary.
//
// The value scheme is a single tag byte followed by the payload. The tag
// table covers the common Item.Value types (nil, bool, uint64, int64, int,
// float64, string, []byte, core.Collection, and the []float64 and
// map[int64]float64 values state hands to task code). An application's own
// payload type implements Payload and registers its decoder under a small
// constant tag (RegisterPayload); it rides behind TagApp. The union is
// closed: Value refuses any other type at the sender, and the decoder
// refuses any tag it does not know.
//
// Encoders append into a caller-supplied or pooled buffer and are reusable;
// Decoders never panic on hostile input (length and count fields are
// bounds-checked against the remaining bytes before any allocation, and
// Collection and payload nesting is depth-limited). A Decoder in borrow
// mode returns []byte values aliasing the input buffer — callers use it
// only when the buffer's ownership transfers with the decoded value (a
// freshly read frame); copy mode is for buffers that will be reused.
package flat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
)

// Value tag bytes. The zero byte is deliberately unassigned so zeroed
// memory never parses as a value, and 0x0b (a retired reflective fallback)
// stays unassigned so old frames fail as unknown tags.
const (
	TagNil        byte = 0x01
	TagFalse      byte = 0x02
	TagTrue       byte = 0x03
	TagUint64     byte = 0x04
	TagInt64      byte = 0x05
	TagInt        byte = 0x06
	TagFloat64    byte = 0x07
	TagString     byte = 0x08
	TagBytes      byte = 0x09
	TagCollection byte = 0x0a
	TagFloat64s   byte = 0x0c // []float64
	TagFloatMap   byte = 0x0d // map[int64]float64, keys ascending
	TagApp        byte = 0x0e // uvarint payload tag, then the Payload's layout
)

// Payload is an application value type with its own flat layout. FlatTag
// names the decoder registered for it with RegisterPayload; AppendFlat
// writes the fields, which the decoder reads back in the same order.
type Payload interface {
	FlatTag() uint64
	AppendFlat(e *Encoder) error
}

// decoders maps payload tags to their decoders. It is written only by
// RegisterPayload during package initialisation, so reads need no lock.
var decoders = map[uint64]func(*Decoder) any{}

// RegisterPayload installs the decoder for the Payload type whose FlatTag
// is tag. Call it from an init function. It panics on tag 0 or a tag that
// is already taken: two types sharing a tag would decode as each other.
func RegisterPayload(tag uint64, decode func(*Decoder) any) {
	if tag == 0 {
		panic("flat: payload tag 0 is reserved")
	}
	if _, dup := decoders[tag]; dup {
		panic(fmt.Sprintf("flat: payload tag %d registered twice", tag))
	}
	decoders[tag] = decode
}

// MaxDepth bounds Collection nesting on both encode (self-referential
// collections would loop forever) and decode (a hostile buffer of repeated
// collection tags would otherwise recurse to stack exhaustion).
const MaxDepth = 64

// Typed errors. Decode errors are sticky on the Decoder; Err returns the
// first one.
var (
	ErrMalformed = errors.New("flat: malformed payload")
	ErrDepth     = errors.New("flat: collection nesting exceeds depth limit")
)

// maxPooledBuf caps the buffer capacity an encoder may bring back into the
// pool, so one jumbo snapshot frame doesn't pin megabytes forever.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled encoder with an empty buffer.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	e.depth = 0
	return e
}

// PutEncoder returns an encoder to the pool. The caller must be done with
// any slice obtained from Bytes.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encPool.Put(e)
}

// Encoder appends the flat encoding to an internal buffer. The zero value
// is ready to use; Reset points it at a caller-owned buffer for
// append-in-place encoding (0 allocs when the buffer has capacity).
type Encoder struct {
	buf   []byte
	tmp   [binary.MaxVarintLen64]byte
	depth int
}

// Reset makes the encoder append to dst (usually dst[:0] of a reused
// buffer).
func (e *Encoder) Reset(dst []byte) {
	e.buf = dst
	e.depth = 0
}

// Bytes returns the encoded buffer. It aliases the encoder's internal
// buffer: copy it out before reusing or pooling the encoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends v in varint encoding.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

// Varint appends v in zigzag varint encoding.
func (e *Encoder) Varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

// Fixed64 appends v as 8 little-endian bytes — used where a fixed frame
// size matters more than small-value compactness (heartbeat seqs).
func (e *Encoder) Fixed64(v uint64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], v)
	e.buf = append(e.buf, e.tmp[:8]...)
}

// Float64 appends f as fixed 8 little-endian bytes.
func (e *Encoder) Float64(f float64) { e.Fixed64(math.Float64bits(f)) }

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string without converting it to []byte.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// NilableCount appends a presence-shifted count: 0 for a nil slice or map,
// n+1 for one holding n elements, so nil and empty round-trip apart.
func (e *Encoder) NilableCount(n int, isNil bool) {
	c := uint64(n) + 1
	if isNil {
		c = 0
	}
	e.Uvarint(c)
}

// Float64s appends a nilable []float64.
func (e *Encoder) Float64s(x []float64) {
	e.NilableCount(len(x), x == nil)
	for _, f := range x {
		e.Float64(f)
	}
}

// FloatMap appends a nilable map[int64]float64 with keys in ascending
// order, so equal maps encode to equal bytes.
func (e *Encoder) FloatMap(m map[int64]float64) {
	e.NilableCount(len(m), m == nil)
	for _, k := range slices.Sorted(maps.Keys(m)) {
		e.Varint(k)
		e.Float64(m[k])
	}
}

// Value appends one tagged Item.Value. A type outside the tag table must
// be a registered Payload; anything else is refused here, at the sender.
// []byte, Collection and the two composite tags use presence-shifted
// counts (NilableCount) so nil round-trips exactly.
func (e *Encoder) Value(v any) error {
	switch x := v.(type) {
	case nil:
		e.Byte(TagNil)
	case bool:
		if x {
			e.Byte(TagTrue)
		} else {
			e.Byte(TagFalse)
		}
	case uint64:
		e.Byte(TagUint64)
		e.Uvarint(x)
	case int64:
		e.Byte(TagInt64)
		e.Varint(x)
	case int:
		e.Byte(TagInt)
		e.Varint(int64(x))
	case float64:
		e.Byte(TagFloat64)
		e.Float64(x)
	case string:
		e.Byte(TagString)
		e.Str(x)
	case []byte:
		e.Byte(TagBytes)
		e.NilableCount(len(x), x == nil)
		e.buf = append(e.buf, x...)
	case []float64:
		e.Byte(TagFloat64s)
		e.Float64s(x)
	case map[int64]float64:
		e.Byte(TagFloatMap)
		e.FloatMap(x)
	case core.Collection:
		if e.depth >= MaxDepth {
			return ErrDepth
		}
		e.depth++
		e.Byte(TagCollection)
		e.NilableCount(len(x), x == nil)
		for _, el := range x {
			if err := e.Value(el); err != nil {
				e.depth--
				return err
			}
		}
		e.depth--
	case Payload:
		return e.payload(x)
	default:
		return fmt.Errorf("flat: no codec for payload type %T", v)
	}
	return nil
}

// payload appends a registered application Payload behind TagApp. The
// payload writes into a pooled encoder: handing e itself to an interface
// method would move every caller's stack Encoder to the heap.
func (e *Encoder) payload(p Payload) error {
	tag := p.FlatTag()
	if _, ok := decoders[tag]; !ok {
		return fmt.Errorf("flat: payload type %T has no registered decoder for tag %d", p, tag)
	}
	if e.depth >= MaxDepth {
		return ErrDepth
	}
	sub := GetEncoder()
	sub.depth = e.depth + 1
	err := p.AppendFlat(sub)
	if err == nil {
		e.Byte(TagApp)
		e.Uvarint(tag)
		e.buf = append(e.buf, sub.buf...)
	}
	PutEncoder(sub)
	return err
}

// Item appends one core.Item: uvarint Origin/Seq/Key/ReqID, varint Parts,
// then the tagged value. Origin is stored rotated by +1: every externally
// injected item carries the sentinel origin ^uint64(0), which a plain
// uvarint spends ten bytes on; rotated it wraps to zero and costs one,
// while real node ids (small integers) stay one byte too.
func (e *Encoder) Item(it core.Item) error {
	e.Uvarint(it.Origin + 1)
	e.Uvarint(it.Seq)
	e.Uvarint(it.Key)
	e.Uvarint(it.ReqID)
	e.Varint(int64(it.Parts))
	return e.Value(it.Value)
}

// Decoder reads the flat encoding with a sticky error: after the first
// malformed field every subsequent read returns zero values and Err reports
// the failure. It never panics and never allocates more than the remaining
// input could justify.
type Decoder struct {
	buf    []byte
	off    int
	err    error
	borrow bool
	depth  int
}

// NewDecoder returns a copy-mode decoder: returned []byte values are
// copies, safe to hold after buf is reused.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// NewBorrowDecoder returns a borrow-mode decoder: returned []byte values
// alias buf. Use only when buf's ownership transfers with the decoded
// values (a frame that is never reused).
func NewBorrowDecoder(buf []byte) *Decoder { return &Decoder{buf: buf, borrow: true} }

// Init readies a (possibly stack-allocated) decoder for buf.
func (d *Decoder) Init(buf []byte, borrow bool) {
	d.buf, d.off, d.err, d.borrow, d.depth = buf, 0, nil, borrow, 0
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the whole buffer was consumed without error.
func (d *Decoder) Done() bool { return d.err == nil && d.off >= len(d.buf) }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrMalformed)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads a varint-encoded uint64.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrMalformed)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint-encoded int64.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrMalformed)
		return 0
	}
	d.off += n
	return v
}

// Fixed64 reads 8 little-endian bytes.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrMalformed)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Float64 reads a fixed 8-byte float.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Fixed64()) }

// take returns the next n bytes, borrowed or copied per mode. The bounds
// check precedes any allocation, so hostile lengths cannot force one.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrMalformed)
		return nil
	}
	raw := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	if d.borrow {
		return raw
	}
	out := make([]byte, n)
	copy(out, raw)
	return out
}

// Blob reads a length-prefixed byte slice (borrow/copy per mode).
func (d *Decoder) Blob() []byte { return d.take(d.Uvarint()) }

// Count reads an element count and fails the decode unless the remaining
// input could hold that many elements of at least minBytes each, so a
// hostile count never sizes an allocation.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Remaining()/minBytes) {
		d.fail(ErrMalformed)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string (always a copy: string conversion).
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrMalformed)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// NilableCount reads a presence-shifted count (Encoder.NilableCount),
// bounded like Count: ok is false for nil and on any failure.
func (d *Decoder) NilableCount(minBytes int) (n int, ok bool) {
	c := d.Uvarint()
	if d.err != nil || c == 0 {
		return 0, false
	}
	if c-1 > uint64(d.Remaining()/minBytes) {
		d.fail(ErrMalformed)
		return 0, false
	}
	return int(c - 1), true
}

// Float64s reads a nilable []float64.
func (d *Decoder) Float64s() []float64 {
	n, ok := d.NilableCount(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float64()
	}
	return out
}

// FloatMap reads a nilable map[int64]float64. Keys must be strictly
// ascending, so every map has exactly one encoding.
func (d *Decoder) FloatMap() map[int64]float64 {
	n, ok := d.NilableCount(9)
	if !ok {
		return nil
	}
	m := make(map[int64]float64, n)
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Varint()
		if i > 0 && k <= prev {
			d.fail(ErrMalformed)
		}
		prev = k
		m[k] = d.Float64()
	}
	if d.err != nil {
		return nil
	}
	return m
}

// Value reads one tagged value.
func (d *Decoder) Value() any {
	if d.err != nil {
		return nil
	}
	var v any
	switch tag := d.Byte(); tag {
	case TagNil:
		return nil
	case TagFalse:
		return false
	case TagTrue:
		return true
	case TagUint64:
		return d.Uvarint()
	case TagInt64:
		return d.Varint()
	case TagInt:
		return int(d.Varint())
	case TagFloat64:
		return d.Float64()
	case TagString:
		return d.Str()
	case TagBytes:
		v = []byte(nil)
		if n, ok := d.NilableCount(1); ok {
			v = d.take(uint64(n))
		}
	case TagFloat64s:
		v = d.Float64s()
	case TagFloatMap:
		v = d.FloatMap()
	case TagCollection:
		// Every element costs at least one tag byte, so the count is
		// bounded by the remaining input before it sizes an allocation.
		n, ok := d.NilableCount(1)
		if !ok {
			v = core.Collection(nil)
			break
		}
		if d.depth >= MaxDepth {
			d.fail(ErrDepth)
			break
		}
		d.depth++
		col := make(core.Collection, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			col = append(col, d.Value())
		}
		d.depth--
		v = col
	case TagApp:
		v = d.payload()
	default:
		d.fail(fmt.Errorf("%w: unknown value tag 0x%02x", ErrMalformed, tag))
	}
	if d.err != nil {
		return nil
	}
	return v
}

// payload reads a registered application Payload (after TagApp). The
// decoder reads through a heap copy of d, for the same reason
// Encoder.payload writes into a pooled encoder: passing d to a func value
// would move every caller's stack Decoder to the heap.
func (d *Decoder) payload() any {
	decode, ok := decoders[d.Uvarint()]
	if !ok {
		d.fail(fmt.Errorf("%w: unknown payload tag", ErrMalformed))
		return nil
	}
	if d.depth >= MaxDepth {
		d.fail(ErrDepth)
		return nil
	}
	sub := &Decoder{buf: d.buf, off: d.off, borrow: d.borrow, depth: d.depth + 1}
	v := decode(sub)
	d.off = sub.off
	if sub.err != nil {
		d.fail(sub.err)
	}
	return v
}

// Item reads one core.Item, undoing the +1 origin rotation.
func (d *Decoder) Item() core.Item {
	var it core.Item
	it.Origin = d.Uvarint() - 1
	it.Seq = d.Uvarint()
	it.Key = d.Uvarint()
	it.ReqID = d.Uvarint()
	it.Parts = int(d.Varint())
	it.Value = d.Value()
	return it
}

// RoundTripValue deep-copies v through the flat value codec using a pooled
// encoder and a copy-mode decode. A value with no codec — neither in the
// tag table nor a registered Payload — errors out.
func RoundTripValue(v any) (any, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	if err := e.Value(v); err != nil {
		return nil, err
	}
	d := Decoder{buf: e.Bytes()}
	out := d.Value()
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}
