// Package flat is the hand-rolled binary codec behind the wire format:
// every message and the core.Item payload encode as uvarint/fixed fields
// and length-prefixed bytes, the same discipline as the state chunk codec,
// with no reflection walk and no per-frame type dictionary.
//
// The value scheme is a single tag byte followed by the payload for the
// common Item.Value types (nil, bool, uint64, int64, int, float64, string,
// []byte, core.Collection). Any other type — an application's own struct
// payload — rides as a gob-encoded sub-payload behind TagGob, validated by
// CheckWireSafe first. That is the only use of gob on the wire, and the
// reason such types must be registered (Register).
//
// Encoders append into a caller-supplied or pooled buffer and are reusable;
// Decoders never panic on hostile input (length and count fields are
// bounds-checked against the remaining bytes before any allocation, and
// Collection nesting is depth-limited). A Decoder in borrow mode returns
// []byte values aliasing the input buffer — callers use it only when the
// buffer's ownership transfers with the decoded value (a freshly read
// frame); copy mode is for buffers that will be reused.
package flat

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/core"
)

// Value tag bytes. The zero byte is deliberately unassigned so zeroed
// memory never parses as a value.
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
	TagGob        byte = 0x0b
)

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

// Value appends one tagged Item.Value. Unknown types fall back to a
// gob-encoded sub-payload (validated first, so a type gob would corrupt is
// rejected at the sender). []byte and Collection use a presence-shifted
// count (0 = nil, n+1 = length n) so nil round-trips exactly.
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
		if x == nil {
			e.Uvarint(0)
		} else {
			e.Uvarint(uint64(len(x)) + 1)
			e.buf = append(e.buf, x...)
		}
	case core.Collection:
		if e.depth >= MaxDepth {
			return ErrDepth
		}
		e.depth++
		e.Byte(TagCollection)
		if x == nil {
			e.Uvarint(0)
		} else {
			e.Uvarint(uint64(len(x)) + 1)
			for _, el := range x {
				if err := e.Value(el); err != nil {
					e.depth--
					return err
				}
			}
		}
		e.depth--
	default:
		return e.gobValue(v)
	}
	return nil
}

// gobValue is the fallback for value types outside the tag table.
func (e *Encoder) gobValue(v any) error {
	if err := CheckWireSafe(v); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return fmt.Errorf("flat: gob fallback for %T: %w", v, err)
	}
	e.Byte(TagGob)
	e.Blob(buf.Bytes())
	return nil
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

// Value reads one tagged value.
func (d *Decoder) Value() any {
	if d.err != nil {
		return nil
	}
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
		n := d.Uvarint()
		if d.err != nil {
			return nil
		}
		if n == 0 {
			return []byte(nil)
		}
		return d.take(n - 1)
	case TagCollection:
		n := d.Uvarint()
		if d.err != nil {
			return nil
		}
		if n == 0 {
			return core.Collection(nil)
		}
		count := n - 1
		// Every element costs at least one tag byte; a count beyond the
		// remaining input is hostile, reject before allocating.
		if count > uint64(d.Remaining()) {
			d.fail(ErrMalformed)
			return nil
		}
		if d.depth >= MaxDepth {
			d.fail(ErrDepth)
			return nil
		}
		d.depth++
		col := make(core.Collection, 0, count)
		for i := uint64(0); i < count; i++ {
			col = append(col, d.Value())
			if d.err != nil {
				d.depth--
				return nil
			}
		}
		d.depth--
		return col
	case TagGob:
		// gob copies as it decodes, so the sub-payload may alias the input
		// regardless of mode.
		n := d.Uvarint()
		if d.err != nil {
			return nil
		}
		if n > uint64(len(d.buf)-d.off) {
			d.fail(ErrMalformed)
			return nil
		}
		raw := d.buf[d.off : d.off+int(n)]
		d.off += int(n)
		var out any
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&out); err != nil {
			d.fail(fmt.Errorf("%w: gob fallback: %v", ErrMalformed, err))
			return nil
		}
		return out
	default:
		d.fail(fmt.Errorf("%w: unknown value tag 0x%02x", ErrMalformed, tag))
		return nil
	}
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
// encoder and a copy-mode decode — the cheap replacement for a gob
// encoder+decoder pair per value. Types outside the tag table still work
// via the gob fallback; types that cannot cross the wire error out.
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

// Register makes v's type known to the TagGob fallback, so values of it can
// travel as Item.Value. It panics on types gob would corrupt silently —
// registration happens in init functions, where failing loudly at startup
// beats diverging state at runtime.
func Register(v any) {
	if err := CheckWireSafe(v); err != nil {
		panic(err)
	}
	gob.Register(v)
}

// checkResult caches the verdict for one type: err is the static rejection
// (unexported field, unencodable kind); clean means no interface is
// reachable, so values of the type never need a dynamic walk.
type checkResult struct {
	err   error
	clean bool
}

var checked sync.Map // reflect.Type -> checkResult

// CheckWireSafe validates that gob will encode v faithfully: gob silently
// drops unexported struct fields, which in a replicated state system turns
// into state divergence that surfaces long after the bug. Static structure
// is checked once per type and cached; only types with reachable interface
// fields descend into the actual values, and only through those fields.
func CheckWireSafe(v any) error { return checkValue(reflect.ValueOf(v)) }

func checkValue(v reflect.Value) error {
	if !v.IsValid() {
		return nil // nil interface: gob encodes the zero value faithfully
	}
	t := v.Type()
	var cr checkResult
	if r, ok := checked.Load(t); ok {
		cr = r.(checkResult)
	} else {
		cr.err, cr.clean = checkType(t, map[reflect.Type]bool{})
		checked.Store(t, cr)
	}
	if cr.err != nil {
		return cr.err
	}
	if cr.clean {
		return nil
	}
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return checkValue(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := checkValue(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := checkValue(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if err := checkValue(iter.Key()); err != nil {
				return err
			}
			if err := checkValue(iter.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkType walks a type's static structure. seen breaks recursive types;
// a type already on the walk path is treated as clean here, its own entry
// settles the verdict.
func checkType(t reflect.Type, seen map[reflect.Type]bool) (err error, clean bool) {
	if seen[t] {
		return nil, true
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return fmt.Errorf("wire: type %v cannot cross the wire (kind %v)", t, t.Kind()), false
	case reflect.Interface:
		return nil, false // dynamic value checked per encode
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return checkType(t.Elem(), seen)
	case reflect.Map:
		kerr, kclean := checkType(t.Key(), seen)
		if kerr != nil {
			return kerr, false
		}
		verr, vclean := checkType(t.Elem(), seen)
		if verr != nil {
			return verr, false
		}
		return nil, kclean && vclean
	case reflect.Struct:
		clean = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				return fmt.Errorf("wire: type %v has unexported field %q (gob drops it silently)", t, f.Name), false
			}
			ferr, fclean := checkType(f.Type, seen)
			if ferr != nil {
				return ferr, false
			}
			clean = clean && fclean
		}
		return nil, clean
	default:
		return nil, true
	}
}
