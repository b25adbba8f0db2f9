package flat

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// testPayload exercises TagApp: a registered struct outside the tag table,
// carrying a nested composite so its decoder shares the count bounds.
type testPayload struct {
	A int
	B string
	W []float64
}

const testPayloadTag = 100

func (p testPayload) FlatTag() uint64 { return testPayloadTag }

func (p testPayload) AppendFlat(e *Encoder) error {
	e.Varint(int64(p.A))
	e.Str(p.B)
	e.Float64s(p.W)
	return nil
}

func init() {
	RegisterPayload(testPayloadTag, func(d *Decoder) any {
		return testPayload{A: int(d.Varint()), B: d.Str(), W: d.Float64s()}
	})
}

// unregistered implements Payload under a tag no decoder claims.
type unregistered struct{}

func (unregistered) FlatTag() uint64           { return 99 }
func (unregistered) AppendFlat(*Encoder) error { return nil }

// equalValue compares decoded values structurally: floats by bits (NaN
// included), []byte, Collection, []float64 and map[int64]float64 including
// their nil-ness (the codec promises exact nil round trips).
func equalValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && (x == nil) == (y == nil) && bytes.Equal(x, y)
	case []float64:
		y, ok := b.([]float64)
		return ok && (x == nil) == (y == nil) && slices.EqualFunc(x, y, func(f, g float64) bool {
			return math.Float64bits(f) == math.Float64bits(g)
		})
	case map[int64]float64:
		y, ok := b.(map[int64]float64)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for k, f := range x {
			g, ok := y[k]
			if !ok || math.Float64bits(f) != math.Float64bits(g) {
				return false
			}
		}
		return true
	case testPayload:
		y, ok := b.(testPayload)
		return ok && x.A == y.A && x.B == y.B && equalValue(x.W, y.W)
	case core.Collection:
		y, ok := b.(core.Collection)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !equalValue(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// TestValueRoundTrip pins every tag in the table plus a registered Payload.
func TestValueRoundTrip(t *testing.T) {
	values := []any{
		nil,
		false,
		true,
		uint64(0),
		uint64(7),
		^uint64(0),
		int64(-5),
		int64(1 << 40),
		int(42),
		int(-1),
		float64(3.5),
		math.NaN(),
		math.Inf(-1),
		"",
		"hello",
		[]byte(nil),
		[]byte{},
		[]byte("data"),
		core.Collection(nil),
		core.Collection{},
		core.Collection{uint64(1), "two", []byte{3}, nil},
		core.Collection{core.Collection{core.Collection{int64(-9)}}},
		[]float64(nil),
		[]float64{},
		[]float64{1.5, -2, math.Inf(1)},
		map[int64]float64(nil),
		map[int64]float64{},
		map[int64]float64{2: 0.5, -1: 1, 1 << 40: -3},
		testPayload{A: 9, B: "app", W: []float64{0.25}},
		testPayload{},
		core.Collection{testPayload{A: -1}, map[int64]float64{1: 1}},
	}
	for _, v := range values {
		got, err := RoundTripValue(v)
		if err != nil {
			t.Fatalf("RoundTripValue(%#v): %v", v, err)
		}
		if !equalValue(v, got) {
			t.Fatalf("RoundTripValue(%#v) = %#v", v, got)
		}
	}
}

// TestItemRoundTrip pins the item layout and the origin rotation: the
// external-injection sentinel ^uint64(0) must cost one byte, not ten.
func TestItemRoundTrip(t *testing.T) {
	items := []core.Item{
		{Origin: ^uint64(0), Seq: 1, Key: 42, ReqID: 7, Parts: 2, Value: []byte("v")},
		{Origin: 3, Seq: 900, Key: 0, Value: nil},
		{Origin: 0, Seq: 0, Key: 0, Parts: -1, Value: core.Collection{uint64(1)}},
	}
	for _, it := range items {
		var e Encoder
		if err := e.Item(it); err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(e.Bytes())
		got := d.Item()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if !d.Done() {
			t.Fatalf("item %+v: %d trailing bytes", it, d.Remaining())
		}
		if got.Origin != it.Origin || got.Seq != it.Seq || got.Key != it.Key ||
			got.ReqID != it.ReqID || got.Parts != it.Parts || !equalValue(it.Value, got.Value) {
			t.Fatalf("item round trip: got %+v, want %+v", got, it)
		}
	}

	var e Encoder
	if err := e.Item(core.Item{Origin: ^uint64(0), Seq: 1, Key: 1, Value: nil}); err != nil {
		t.Fatal(err)
	}
	// origin(1) + seq(1) + key(1) + reqID(1) + parts(1) + nil tag(1).
	if e.Len() != 6 {
		t.Fatalf("sentinel-origin item encodes to %d bytes, want 6", e.Len())
	}
}

// TestEncodeDepthLimit: a collection nested past MaxDepth must fail loudly
// instead of recursing away.
func TestEncodeDepthLimit(t *testing.T) {
	v := core.Collection{uint64(1)}
	for i := 0; i < MaxDepth+1; i++ {
		v = core.Collection{v}
	}
	var e Encoder
	if err := e.Value(v); !errors.Is(err, ErrDepth) {
		t.Fatalf("deep encode error = %v, want ErrDepth", err)
	}
}

// TestDecodeDepthLimit: the decode side must reject a hostile buffer of
// nested collection tags without exhausting the stack.
func TestDecodeDepthLimit(t *testing.T) {
	var buf []byte
	for i := 0; i < MaxDepth+8; i++ {
		buf = append(buf, TagCollection, 2) // one-element collection
	}
	buf = append(buf, TagNil)
	d := NewDecoder(buf)
	d.Value()
	if !errors.Is(d.Err(), ErrDepth) {
		t.Fatalf("deep decode error = %v, want ErrDepth", d.Err())
	}
}

// TestDecodeHostile tables truncations and lies: every case must produce a
// sticky typed error — no panic, no allocation sized by the hostile count.
func TestDecodeHostile(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{0x00}},
		{"unassigned high tag", []byte{0xff}},
		{"truncated uint64", []byte{TagUint64, 0x80}},
		{"truncated float", []byte{TagFloat64, 1, 2, 3}},
		{"string length past end", []byte{TagString, 200, 'x'}},
		{"bytes length past end", []byte{TagBytes, 90, 'x'}},
		{"huge bytes length", []byte{TagBytes, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"collection count past end", []byte{TagCollection, 200, TagNil}},
		{"collection truncated element", []byte{TagCollection, 3, TagNil}},
		// 0x0b was the reflective fallback's tag; it is retired, and old
		// frames carrying it fail as unknown tags.
		{"gob length past end", []byte{0x0b, 50, 1, 2}},
		{"gob garbage", []byte{0x0b, 3, 0xde, 0xad, 0xbe}},
		{"float64s count past end", []byte{TagFloat64s, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0}},
		{"floatmap count past end", []byte{TagFloatMap, 0xff, 0xff, 0xff, 0xff, 0x0f, 2, 0}},
		{"floatmap keys not ascending", []byte{TagFloatMap, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"floatmap duplicate key", []byte{TagFloatMap, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"unknown app tag", []byte{TagApp, 99, 1, 2, 3}},
		{"app tag truncated", []byte{TagApp, 0x80}},
		{"app payload count past end", []byte{TagApp, testPayloadTag, 2, 1, 'x', 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"app payload truncated", []byte{TagApp, testPayloadTag, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// TotalAlloc is process-wide, so the bound is on the mean over
			// many decodes: another goroutine's stray allocation spreads
			// over all of them instead of landing on one.
			const runs = 100
			ds := make([]*Decoder, runs)
			for i := range ds {
				ds[i] = NewDecoder(tc.buf)
			}
			vs := make([]any, runs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, d := range ds {
				vs[i] = d.Value()
			}
			runtime.ReadMemStats(&after)
			for i, d := range ds {
				if !errors.Is(d.Err(), ErrMalformed) {
					t.Fatalf("hostile input decoded to %#v (err %v), want ErrMalformed", vs[i], d.Err())
				}
			}
			// Nothing a hostile count names may be allocated: the decode
			// stays within a small constant of the input's own size.
			if mean := (after.TotalAlloc - before.TotalAlloc) / runs; mean > 4<<10 {
				t.Fatalf("decode allocated %d bytes on average for a %d-byte input", mean, len(tc.buf))
			}
			// The error is sticky: further reads stay zero-valued.
			d := ds[0]
			if d.Byte() != 0 || d.Uvarint() != 0 {
				t.Fatal("reads after failure returned data")
			}
		})
	}
}

// TestBorrowVsCopy: borrow mode aliases the input buffer, copy mode
// detaches from it.
func TestBorrowVsCopy(t *testing.T) {
	var e Encoder
	if err := e.Value([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), e.Bytes()...)

	borrowed := NewBorrowDecoder(buf).Value().([]byte)
	copied := NewDecoder(buf).Value().([]byte)
	buf[len(buf)-1] = 'Z'
	if string(borrowed) != "abcZ" {
		t.Fatalf("borrow mode did not alias the input: %q", borrowed)
	}
	if string(copied) != "abcd" {
		t.Fatalf("copy mode aliased the input: %q", copied)
	}
}

// TestEncodeRejectsWireUnsafe: the union is closed at the sender. A value
// with no codec (a channel, an unregistered struct) and a Payload whose tag
// no decoder claims both fail to encode, naming the type.
func TestEncodeRejectsWireUnsafe(t *testing.T) {
	type plain struct{ Visible int }
	cases := []struct {
		v    any
		name string
	}{
		{make(chan int), "chan int"},
		{plain{Visible: 1}, "flat.plain"},
		{unregistered{}, "flat.unregistered"},
		{core.Collection{uint64(1), plain{}}, "flat.plain"},
	}
	for _, tc := range cases {
		var e Encoder
		err := e.Value(tc.v)
		if err == nil {
			t.Fatalf("%T encoded without error", tc.v)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("error %q does not name the type %s", err, tc.name)
		}
	}
}

// TestRegisterPayloadPanics: tag 0 and a taken tag are programming errors
// caught at init.
func TestRegisterPayloadPanics(t *testing.T) {
	for _, tag := range []uint64{0, testPayloadTag} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegisterPayload(%d) did not panic", tag)
				}
			}()
			RegisterPayload(tag, func(*Decoder) any { return nil })
		}()
	}
}

// TestPooledEncoder: pooled encoders come back empty and oversized buffers
// are not retained.
func TestPooledEncoder(t *testing.T) {
	e := GetEncoder()
	e.Str("some leftover data")
	PutEncoder(e)
	e2 := GetEncoder()
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: %d bytes", e2.Len())
	}
	e2.Blob(make([]byte, maxPooledBuf+1))
	PutEncoder(e2)
	e3 := GetEncoder()
	defer PutEncoder(e3)
	if cap(e3.buf) > maxPooledBuf {
		t.Fatalf("pool retained %d-byte buffer (cap %d)", cap(e3.buf), maxPooledBuf)
	}
}

// FuzzValue throws arbitrary bytes at the value decoder: it must return a
// value or a typed error, never panic — and anything it accepts must
// re-encode and decode to the same value.
func FuzzValue(f *testing.F) {
	seed := func(v any) {
		var e Encoder
		if err := e.Value(v); err == nil {
			f.Add(append([]byte(nil), e.Bytes()...))
		}
	}
	seed(nil)
	seed(uint64(77))
	seed(math.NaN())
	seed("seed")
	seed([]byte{1, 2, 3})
	seed(core.Collection{uint64(1), core.Collection{"x"}, nil})
	seed([]float64{1, math.NaN()})
	seed(map[int64]float64{-3: 1, 4: 2})
	seed(testPayload{A: 1, B: "p", W: []float64{2}})
	f.Add([]byte{TagCollection, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		v := d.Value()
		if d.Err() != nil {
			return
		}
		var e Encoder
		if err := e.Value(v); err != nil {
			t.Fatalf("decoded value %#v does not re-encode: %v", v, err)
		}
		d2 := NewDecoder(e.Bytes())
		v2 := d2.Value()
		if err := d2.Err(); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if !equalValue(v, v2) {
			t.Fatalf("value changed across re-encode: %#v -> %#v", v, v2)
		}
	})
}
