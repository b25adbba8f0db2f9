package checkpoint

import (
	"bytes"
	"compress/flate"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// TestRestoreV1Chunks: chunk objects in the 9-byte v1 layout restore. The
// chunks are written byte-by-byte by hand so this keeps failing if the
// writer and the v1 layout ever drift together.
func TestRestoreV1Chunks(t *testing.T) {
	cl, b := newBackupEnv(t, 2, 0)
	kv := populatedKV(200)
	chunks := streamed(t, kv, 1024)
	for i, c := range chunks {
		hdr := []byte{
			byte(c.Type), // no delta bit
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
	// Commit the manifest by hand.
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
	st, err := restoreNew(meta, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*state.KVMap).NumEntries(); got != 200 {
		t.Fatalf("v1 chunks restored %d entries, want 200", got)
	}
}

// TestDecodeChunkRejectsUnknown: the retired compressed-chunk header (bit
// 0x40 in byte 0, a flags byte, then a flate stream) is refused with
// ErrBadChunk before its payload is looked at, both by the decoder and
// through a restore; so is a truncated header.
func TestDecodeChunkRejectsUnknown(t *testing.T) {
	var fl bytes.Buffer
	w, _ := flate.NewWriter(&fl, flate.BestSpeed)
	w.Write(make([]byte, 1<<20))
	w.Close()
	hdr := chunkHeader(state.Chunk{Type: state.TypeKVMap, Of: 1})
	v2 := append([]byte{hdr[0] | 0x40}, hdr[1:]...)
	v2 = append(v2, 0x01) // the retired flate flag
	deltaV2 := append([]byte{hdr[0] | 0x40 | 0x80}, v2[1:]...)
	for name, payload := range map[string][]byte{
		"v2 flate":       append(append([]byte(nil), v2...), fl.Bytes()...),
		"v2 flags only":  v2,
		"v2 delta flate": append(append([]byte(nil), deltaV2...), fl.Bytes()...),
		"truncated":      hdr[:8],
	} {
		if c, err := decodeChunk(payload); !errors.Is(err, state.ErrBadChunk) {
			t.Errorf("%s: decodeChunk = %d data bytes, %v; want ErrBadChunk", name, len(c.Data), err)
		}
	}

	cl, b := newBackupEnv(t, 1, 0)
	cl.Node(0).Disk.Write(chunkName("kv/0", 1, 0), append(v2, fl.Bytes()...))
	bufBytes, err := encodeBuffers(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Node(0).Disk.Write(bufName("kv/0", 1), bufBytes)
	b.mu.Lock()
	b.manifests["kv/0"] = Meta{SE: "kv/0", Epoch: 1, Chunks: 1, StoreType: state.TypeKVMap,
		Chain: []EpochRef{{Epoch: 1, Chunks: 1}}}
	b.mu.Unlock()
	if _, _, err := b.Restore("kv/0", 2); !errors.Is(err, state.ErrBadChunk) {
		t.Fatalf("restore of a v2 chunk = %v, want ErrBadChunk", err)
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
