package checkpoint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// compressibleKV builds a store whose values flate can actually shrink —
// repetitive text, like most real state payloads.
func compressibleKV(n int) *state.KVMap {
	kv := state.NewKVMap()
	filler := strings.Repeat("the quick brown fox ", 8)
	for i := uint64(0); i < uint64(n); i++ {
		kv.Put(i, []byte(fmt.Sprintf("%s#%d", filler, i)))
	}
	return kv
}

// TestCompressedSaveRestoreRoundTrip: with CompressBase on, base chunks
// shrink on disk and the chain (compressed base + raw deltas) still
// restores to identical contents.
func TestCompressedSaveRestoreRoundTrip(t *testing.T) {
	_, raw := newBackupEnv(t, 2, 0)
	_, comp := newBackupEnv(t, 2, 0)
	comp.CompressBase = true

	kv := compressibleKV(300)
	kv.EnableDeltaTracking()
	chunks, err := kv.Checkpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{SE: "kv/0", Epoch: 1, StoreType: state.TypeKVMap}
	rawBytes, err := raw.Save(meta, chunks)
	if err != nil {
		t.Fatal(err)
	}
	compBytes, err := comp.Save(meta, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if compBytes >= rawBytes {
		t.Fatalf("compressed base wrote %d bytes, raw wrote %d", compBytes, rawBytes)
	}
	// The committed chain accounts post-compression bytes: that is what the
	// compaction-ratio policy sees.
	m, _ := comp.Latest("kv/0")
	if m.Chain[0].Bytes >= rawBytes {
		t.Fatalf("chain records %d bytes, want < %d", m.Chain[0].Bytes, rawBytes)
	}

	// A delta epoch on top stays raw and extends the chain.
	kv.Put(7, []byte("changed"))
	deltas, err := kv.DeltaCheckpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Save(Meta{SE: "kv/0", Epoch: 2, Delta: true, StoreType: state.TypeKVMap}, deltas); err != nil {
		t.Fatal(err)
	}

	sets, meta2, err := comp.Restore("kv/0", 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var seven []byte
	for _, g := range sets {
		st, err := RestoreInstance(meta2, g)
		if err != nil {
			t.Fatal(err)
		}
		kvp := st.(*state.KVMap)
		total += kvp.NumEntries()
		if v, ok := kvp.Get(7); ok {
			seven = v
		}
	}
	if total != 300 {
		t.Fatalf("restored %d entries, want 300", total)
	}
	if string(seven) != "changed" {
		t.Fatalf("delta on compressed base lost: key 7 = %q", seven)
	}
}

// TestCompressionSkipsSmallAndIncompressible: chunks below compressMinSize
// and chunks flate cannot shrink are stored raw (v1 header), so the v2
// header only ever appears when it pays.
func TestCompressionSkipsSmallAndIncompressible(t *testing.T) {
	cl, b := newBackupEnv(t, 1, 0)
	b.CompressBase = true

	kv := state.NewKVMap()
	kv.Put(1, []byte("tiny"))
	chunks, err := kv.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Save(Meta{SE: "kv/0", Epoch: 1, StoreType: state.TypeKVMap}, chunks); err != nil {
		t.Fatal(err)
	}
	payload, err := cl.Node(0).Disk.Read(chunkName("kv/0", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if payload[0]&chunkV2Flag != 0 {
		t.Fatalf("small chunk stored with v2 header (byte0 %#x)", payload[0])
	}
	if _, _, err := b.Restore("kv/0", 1); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreV1Chunks: chunk objects written by a pre-compression release
// (9-byte header, no flags) must keep restoring after the format gained the
// v2 header. The chunks are written byte-by-byte by hand so this keeps
// failing if the writer and the v1 layout ever drift together.
func TestRestoreV1Chunks(t *testing.T) {
	cl, b := newBackupEnv(t, 2, 0)
	kv := populatedKV(200)
	chunks, err := kv.Checkpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		hdr := []byte{
			byte(c.Type), // v1: no v2 bit, no flags byte
			byte(c.Index >> 24), byte(c.Index >> 16), byte(c.Index >> 8), byte(c.Index),
			byte(c.Of >> 24), byte(c.Of >> 16), byte(c.Of >> 8), byte(c.Of),
		}
		cl.Node(i%2).Disk.Write(chunkName("kv/0", 1, i), append(hdr, c.Data...))
	}
	bufBytes, err := encodeBuffers(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Node(0).Disk.Write(bufName("kv/0", 1), bufBytes)
	// Commit the manifest the way a pre-compression release would have.
	b.mu.Lock()
	b.manifests["kv/0"] = Meta{
		SE: "kv/0", Epoch: 1, Chunks: len(chunks), StoreType: state.TypeKVMap,
		Chain: []EpochRef{{Epoch: 1, Chunks: len(chunks)}},
	}
	b.mu.Unlock()

	sets, meta, err := b.Restore("kv/0", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RestoreInstance(meta, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*state.KVMap).NumEntries(); got != 200 {
		t.Fatalf("v1 chunks restored %d entries, want 200", got)
	}
}

// TestDecodeChunkRejectsUnknown: v2 chunks with flags this release does not
// know mean a future writer — refuse rather than misparse. Truncated v2
// headers fail the same way.
func TestDecodeChunkRejectsUnknown(t *testing.T) {
	v2 := func(flags byte) []byte {
		h := chunkHeaderV2(state.Chunk{Type: state.TypeKVMap, Of: 1}, flags)
		return append(h[:], 0xab)
	}
	if _, err := decodeChunk(v2(0x02)); err == nil {
		t.Fatal("unknown chunk flag accepted")
	}
	if _, err := decodeChunk(v2(chunkFlagFlate | 0x80)); err == nil {
		t.Fatal("unknown chunk flag combination accepted")
	}
	short := chunkHeaderV2(state.Chunk{Type: state.TypeKVMap, Of: 1}, chunkFlagFlate)
	if _, err := decodeChunk(short[:9]); err == nil {
		t.Fatal("truncated v2 header accepted")
	}
	if _, err := decodeChunk(v2(chunkFlagFlate)); err == nil {
		t.Fatal("garbage flate stream accepted")
	}
}

// TestDecodeBuffersHostile: buffer payloads come off backup disks, but the
// decoder still must not let a corrupt count field size an allocation or
// panic.
func TestDecodeBuffersHostile(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"huge TE count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"huge edge count", []byte{1, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"huge item count", []byte{1, 0x02, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"truncated item", []byte{1, 0x02, 1, 1, 0x01}},
		{"trailing bytes", append(mustEncodeBuffers(nil), 0x00)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if out, err := decodeBuffers(tc.buf); err == nil {
				t.Fatalf("hostile buffer payload decoded to %+v", out)
			}
		})
	}
	// And the healthy empty payload still parses.
	out, err := decodeBuffers(mustEncodeBuffers(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty buffers = %+v, %v", out, err)
	}
}

func mustEncodeBuffers(b map[int][][]core.Item) []byte {
	out, err := encodeBuffers(b)
	if err != nil {
		panic(err)
	}
	return out
}
