package wire

import (
	"repro/internal/core"
	"repro/internal/wire/flat"
)

// EncodeItems flat-encodes an item batch on its own (no envelope), for the
// Data of replay-log and edge-log snapshot parts. Layout: uvarint count,
// count× item — the same items layout Inject and RemoteEmit carry.
func EncodeItems(items []core.Item) ([]byte, error) {
	e := flat.GetEncoder()
	defer flat.PutEncoder(e)
	if err := encodeItems(e, items); err != nil {
		return nil, err
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// EncodeItemsBounded encodes a prefix of items whose encoding stays near
// maxBytes, returning the encoding and how many items it consumed. At
// least one item is always consumed (a single oversized item may exceed
// the budget), so a caller splitting a long log into bounded blobs always
// makes progress. The output is a complete EncodeItems blob: uvarint
// count, count× item.
func EncodeItemsBounded(items []core.Item, maxBytes int) ([]byte, int, error) {
	body := flat.GetEncoder()
	defer flat.PutEncoder(body)
	took := 0
	for _, it := range items {
		before := body.Len()
		if err := body.Item(it); err != nil {
			return nil, 0, err
		}
		if took > 0 && body.Len() > maxBytes {
			// Cut before the item that crossed the budget.
			body.Reset(body.Bytes()[:before])
			break
		}
		took++
		if body.Len() >= maxBytes {
			break
		}
	}
	head := flat.GetEncoder()
	defer flat.PutEncoder(head)
	head.Uvarint(uint64(took))
	out := make([]byte, 0, head.Len()+body.Len())
	out = append(out, head.Bytes()...)
	out = append(out, body.Bytes()...)
	return out, took, nil
}

// DecodeItems reverses EncodeItems. It decodes in copy mode — the result
// outlives the input buffer (replay logs are long-lived) — and applies the
// same hostile-count guard as the frame decoders.
func DecodeItems(data []byte) ([]core.Item, error) {
	d := flat.NewDecoder(data)
	items := decodeItems(d)
	if err := finish(d); err != nil {
		return nil, err
	}
	return items, nil
}
