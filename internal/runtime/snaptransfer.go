package runtime

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/state"
	"repro/internal/wire"
	"repro/internal/wire/flat"
)

// This file is the coordinator half of the streaming snapshot transfer:
// pulling a worker's snapshot part by part (Checkpoint) and pushing it
// back the same way (RecoverWorker). The coordinator never materialises a
// worker's snapshot — it retains the stream as independently compressed
// part records plus the small TE metadata the log trims need,
// so its peak memory per worker is the retained records plus one in-flight
// frame, not the worker's whole state. What it retains per worker is a
// checkpoint chain (DESIGN.md "Distributed checkpoint chain"): per SE
// instance one base epoch and the delta epochs since, so every pull after
// a worker's first moves only the keys that changed.

const (
	// snapPullRetries bounds transport-level retries per chunk request. The
	// worker re-serves (pull) or re-acks (push) a repeated seq without
	// advancing, so a retry after a lost reply is safe.
	snapPullRetries = 3
	// snapCompressMin is the smallest part payload worth offering to flate;
	// below it the header tax dominates.
	snapCompressMin = 512
)

// seKey names one SE instance of one worker (worker-local index).
type seKey struct {
	name  string
	index int
}

// seChain is the retained chain of one SE instance: the part records of
// its newest base epoch, then those of every delta epoch since, in the
// order a restore applies them.
type seChain struct {
	recs [][]byte
	refs []checkpoint.EpochRef // refs[0] is the base; Bytes are retained bytes
}

// retainedSnap is one worker's recovery point: per SE instance a chain,
// plus the newest epoch's metadata parts (TE watermarks, the local backlog
// and edge-log slices — always shipped whole) and the TE watermark metadata
// the replay-log and edge trims read. Written under the write side of the
// coordinator's injMu; the chain compactor reads it under the read side.
type retainedSnap struct {
	epoch uint64             // newest retained epoch: the next SnapBegin's Have
	meta  [][]byte           // encodeSnapRecord output, one per metadata part
	ses   map[seKey]*seChain // per SE instance
	order []seKey            // ses in first-seen order, for a stable push order
	tes   []wire.SnapPart    // the newest epoch's PartTE parts, decoded
}

// needsFold reports whether the chain's deltas have outgrown its base
// (checkpoint.ShouldDelta): the compactor then folds them into a new base.
func (ch *seChain) needsFold() bool {
	return len(ch.refs) > 1 && !checkpoint.ShouldDelta(ch.refs)
}

// foldJob is one chain the compactor folds: the chain's prefix as it stood
// when captured.
type foldJob struct {
	k    seKey
	ch   *seChain
	recs [][]byte
	refs []checkpoint.EpochRef
	// What replaces the captured prefix.
	folded [][]byte
	ref    checkpoint.EpochRef
}

// compactChains is the coordinator's one chain compactor. Each Checkpoint
// wakes it; it then folds, one SE instance at a time, every retained chain
// whose deltas have outgrown its base, so no worker ever re-ships a base
// to shorten a chain. Only the capture and the swap take injMu, the first
// its read side, the second briefly its write side; the fold itself runs
// beside sends and checkpoints. A fold that fails is retried after the
// next checkpoint; Close waits for the folds of the round in flight.
func (c *Coordinator) compactChains() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopped:
			return
		case <-c.compact:
		}
		for job := c.nextFold(); job != nil && c.fold(job) == nil; job = c.nextFold() {
			c.swapFold(job)
		}
	}
}

// nextFold captures the first retained chain that needs a fold, or nil.
func (c *Coordinator) nextFold() *foldJob {
	c.injMu.RLock()
	defer c.injMu.RUnlock()
	for _, cw := range c.workers {
		if cw.snap == nil {
			continue
		}
		for _, k := range cw.snap.order {
			if ch := cw.snap.ses[k]; ch.needsFold() {
				// Folds and checkpoints only ever append past, or replace,
				// the captured slices, so they stay readable unlocked.
				return &foldJob{k: k, ch: ch, recs: ch.recs, refs: ch.refs}
			}
		}
	}
	return nil
}

// fold materialises the captured chain into a fresh store the way a
// restore applies it (applySEPart), then re-cuts that store as base
// records. The new base stands for the newest folded epoch.
func (c *Coordinator) fold(job *foldJob) error {
	var st state.Store
	for _, rec := range job.recs {
		p, err := decodeSnapRecord(rec)
		if err == nil && st == nil {
			st, err = state.New(p.Store)
		}
		if err == nil {
			err = applySEPart(st, &p)
		}
		if err != nil {
			return fmt.Errorf("coordinator: fold %s/%d: %w", job.k.name, job.k.index, err)
		}
	}
	it, err := state.StreamChunks(st, c.opts.SnapChunkBytes)
	if err != nil {
		return err
	}
	job.ref = checkpoint.EpochRef{Epoch: job.refs[len(job.refs)-1].Epoch}
	for {
		ck, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		p := sePart(job.k.name, job.k.index, ck)
		rec, _ := encodeSnapRecord(&p)
		job.folded = append(job.folded, rec)
		job.ref.Chunks++
		job.ref.Bytes += int64(len(rec))
	}
}

// swapFold replaces the folded prefix of the chain, keeping every delta
// appended since the capture, and reports whether it did. A base the worker
// shipped meanwhile replaced the prefix and drops the fold: base epochs only
// grow, and a folded base carries an epoch its chain already had.
func (c *Coordinator) swapFold(job *foldJob) bool {
	c.injMu.Lock()
	defer c.injMu.Unlock()
	ch := job.ch
	if len(ch.refs) < len(job.refs) || ch.refs[0].Epoch != job.refs[0].Epoch {
		return false
	}
	ch.recs = append(job.folded, ch.recs[len(job.recs):]...)
	ch.refs = append([]checkpoint.EpochRef{job.ref}, ch.refs[len(job.refs):]...)
	return true
}

// pulledSE is one SE instance's share of a pulled epoch.
type pulledSE struct {
	delta bool
	recs  [][]byte
	bytes int64 // retained (post-compression) bytes
}

// pulledEpoch is one successful pull, not yet folded into the worker's
// retained chain. A pull goroutine owns it exclusively; the counters are
// folded into the coordinator's stats after the join.
type pulledEpoch struct {
	epoch uint64
	meta  [][]byte
	ses   map[seKey]*pulledSE
	order []seKey
	tes   []wire.SnapPart

	chunks      int
	rawBytes    int64 // encoded part sizes before compression
	storedBytes int64 // retained record sizes
	peakFrame   int64 // largest reply frame
}

// add retains one pulled part.
func (pe *pulledEpoch) add(p *wire.SnapPart) error {
	rec, raw := encodeSnapRecord(p)
	pe.chunks++
	pe.rawBytes += int64(raw)
	pe.storedBytes += int64(len(rec))
	if p.Kind != wire.PartSE {
		if p.Kind == wire.PartTE {
			pe.tes = append(pe.tes, *p)
		}
		pe.meta = append(pe.meta, rec)
		return nil
	}
	k := seKey{p.Name, p.Index}
	se := pe.ses[k]
	if se == nil {
		se = &pulledSE{delta: p.Delta}
		pe.ses[k] = se
		pe.order = append(pe.order, k)
	}
	if se.delta != p.Delta {
		return fmt.Errorf("coordinator: epoch %d mixes base and delta parts of SE %s/%d", pe.epoch, p.Name, p.Index)
	}
	se.recs = append(se.recs, rec)
	se.bytes += int64(len(rec))
	return nil
}

// fold makes a pulled epoch the worker's newest retained one. Retention is
// garbage-collected per SE instance: a base supersedes everything retained
// for that instance — dictionary Restore merges and never clears, so a
// stale base under a new one would resurrect deleted keys — a delta appends
// to the instance's chain, and an instance the epoch says nothing about
// (nothing changed) keeps its chain as is. The metadata parts are replaced
// whole.
func (rs *retainedSnap) fold(pe *pulledEpoch) error {
	for _, k := range pe.order {
		if se := pe.ses[k]; se.delta && rs.ses[k] == nil {
			return fmt.Errorf("coordinator: epoch %d is a delta of SE %s/%d, which has no retained base", pe.epoch, k.name, k.index)
		}
	}
	for _, k := range pe.order {
		se := pe.ses[k]
		ref := checkpoint.EpochRef{Epoch: pe.epoch, Chunks: len(se.recs), Bytes: se.bytes, Delta: se.delta}
		ch := rs.ses[k]
		if ch == nil {
			ch = &seChain{}
			rs.ses[k] = ch
			rs.order = append(rs.order, k)
		}
		if se.delta {
			ch.recs = append(ch.recs, se.recs...)
			ch.refs = append(ch.refs, ref)
		} else {
			ch.recs, ch.refs = se.recs, []checkpoint.EpochRef{ref}
		}
	}
	rs.epoch, rs.meta, rs.tes = pe.epoch, pe.meta, pe.tes
	return nil
}

// SnapStats describes the coordinator's side of the last checkpoint round.
// Workers/Chunks/RawBytes/StoredBytes reset every Checkpoint and count what
// that round pulled (not what is retained); PeakFrameBytes accumulates for
// the coordinator's life.
type SnapStats struct {
	// Workers and Chunks count the last round's successful pulls.
	Workers int
	Chunks  int
	// RawBytes is the last round's total encoded part bytes; StoredBytes is
	// what the coordinator retained of them after per-record compression.
	RawBytes    int64
	StoredBytes int64
	// PeakFrameBytes is the largest single snapshot-path frame observed in
	// either direction — the coordinator's in-flight buffering bound.
	PeakFrameBytes int64
}

// SnapshotStats reports the streaming-transfer counters.
func (c *Coordinator) SnapshotStats() SnapStats {
	c.injMu.Lock()
	defer c.injMu.Unlock()
	return c.stats
}

// encodeSnapRecord stores one part as [flag][payload]: flag 0 is the raw
// flat encoding, flag 1 is uvarint(raw length) and then the flate
// (BestSpeed) compression of it, chosen per record when it actually
// shrinks. Records are self-contained so recovery decodes them one at a
// time, and never leave the coordinator. The part is encoded into a pooled
// buffer and compressed with a pooled writer into a pooled buffer capped at
// the raw size, so a record costs one allocation of its own size.
func encodeSnapRecord(p *wire.SnapPart) (rec []byte, rawLen int) {
	e := flat.GetEncoder()
	defer flat.PutEncoder(e)
	wire.EncodeSnapPartTo(e, p)
	raw := e.Bytes()
	if len(raw) >= snapCompressMin {
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z)
		if z.compress(raw) {
			return bytes.Clone(z.out.b), len(raw)
		}
	}
	rec = make([]byte, len(raw)+1)
	copy(rec[1:], raw)
	return rec, len(raw)
}

// deflater is a reusable flate writer and the capped buffer it writes.
type deflater struct {
	fw  *flate.Writer
	out cappedBuf
}

var deflaters = sync.Pool{New: func() any {
	z := &deflater{}
	z.fw, _ = flate.NewWriter(&z.out, flate.BestSpeed) // fails only for an invalid level
	return z
}}

// compress builds raw's flag-1 record in z.out, reporting false when the
// record would not be shorter than raw plus its flag.
func (z *deflater) compress(raw []byte) bool {
	z.out.b, z.out.limit = append(z.out.b[:0], 1), len(raw)
	z.out.b = binary.AppendUvarint(z.out.b, uint64(len(raw)))
	z.fw.Reset(&z.out)
	_, err := z.fw.Write(raw)
	return err == nil && z.fw.Close() == nil
}

// cappedBuf is an append buffer that refuses to grow past limit bytes.
type cappedBuf struct {
	b     []byte
	limit int
}

var errRecordGrew = errors.New("coordinator: compressed record outgrew its raw part")

func (c *cappedBuf) Write(p []byte) (int, error) {
	if len(c.b)+len(p) > c.limit {
		return 0, errRecordGrew
	}
	c.b = append(c.b, p...)
	return len(p), nil
}

// decodeSnapRecord reverses encodeSnapRecord.
func decodeSnapRecord(rec []byte) (wire.SnapPart, error) {
	if len(rec) == 0 {
		return wire.SnapPart{}, fmt.Errorf("coordinator: empty snapshot record")
	}
	switch rec[0] {
	case 0:
		return wire.DecodeSnapPart(rec[1:])
	case 1:
		// Inflate into one buffer of exactly the recorded raw length, which
		// deflate's best ratio (258 bytes per 2 bits, about 1032:1) bounds
		// by the record's size: a hostile length fails before it sizes
		// the buffer.
		n, k := binary.Uvarint(rec[1:])
		if k <= 0 || n > 1032*uint64(len(rec)) {
			return wire.SnapPart{}, fmt.Errorf("coordinator: snapshot record: bad raw length")
		}
		raw := make([]byte, n)
		fr := flate.NewReader(bytes.NewReader(rec[1+k:]))
		_, err := io.ReadFull(fr, raw)
		fr.Close()
		if err != nil {
			return wire.SnapPart{}, fmt.Errorf("coordinator: snapshot record: %w", err)
		}
		return wire.DecodeSnapPart(raw)
	default:
		return wire.SnapPart{}, fmt.Errorf("coordinator: snapshot record flag %d", rec[0])
	}
}

// encodeSnapRecords concatenates parts as length-prefixed snapshot records
// (encodeSnapRecord): the modelled-disk sink's form of the TE state cut
// with an SE instance (checkpoint.Meta.TE).
func encodeSnapRecords(parts []wire.SnapPart) []byte {
	var out []byte
	for i := range parts {
		rec, _ := encodeSnapRecord(&parts[i])
		out = binary.AppendUvarint(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// decodeSnapRecords reverses encodeSnapRecords. The object comes off a
// backup disk: a length that overruns it fails before anything is
// allocated for it, and each record decodes under the part decoder's own
// guards.
func decodeSnapRecords(b []byte) ([]wire.SnapPart, error) {
	var parts []wire.SnapPart
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return nil, fmt.Errorf("runtime: snapshot record overruns its object")
		}
		p, err := decodeSnapRecord(b[k : k+int(n)])
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		b = b[k+int(n):]
	}
	return parts, nil
}

// callRetry is call with bounded retries on transport errors. Application
// errors (the worker answered and said no) return immediately: retrying
// them re-asks a question that was already answered.
func callRetry(tr cluster.Transport, frame []byte, want byte, out any) error {
	var err error
	for attempt := 0; attempt < snapPullRetries; attempt++ {
		var resp []byte
		resp, err = tr.Call(frame)
		if err == nil {
			return wire.Expect(resp, want, out)
		}
		if errors.Is(err, cluster.ErrRemote) {
			return err
		}
	}
	return err
}

// notePeak folds one observed frame length into the buffering bound.
func (c *Coordinator) notePeak(n int64) {
	if n > c.stats.PeakFrameBytes {
		c.stats.PeakFrameBytes = n
	}
}

// pullSnapshot pulls one epoch from one worker over its control link.
// have is the newest epoch the coordinator retains of that worker (see
// wire.SnapBegin). It touches no coordinator state, so Checkpoint runs one
// per live worker concurrently and folds the results after the join.
func (c *Coordinator) pullSnapshot(tr cluster.Transport, stream, have uint64) (*pulledEpoch, error) {
	frame, err := wire.Encode(wire.MsgSnapBegin, wire.SnapBegin{
		Stream:   stream,
		MaxBytes: c.opts.SnapChunkBytes,
		Have:     have,
	})
	if err != nil {
		return nil, err
	}
	var bAck wire.SnapBeginAck
	if err := call(tr, frame, wire.MsgSnapBeginAck, &bAck); err != nil {
		return nil, err
	}
	if bAck.Stream != stream {
		return nil, fmt.Errorf("coordinator: snapshot stream %d: worker opened %d", stream, bAck.Stream)
	}
	if bAck.Epoch <= have {
		return nil, fmt.Errorf("coordinator: snapshot stream %d: worker serves epoch %d, not above retained epoch %d", stream, bAck.Epoch, have)
	}
	pe := &pulledEpoch{epoch: bAck.Epoch, ses: map[seKey]*pulledSE{}}
	for seq := uint64(1); ; seq++ {
		next, err := wire.Encode(wire.MsgSnapNext, wire.SnapNext{Stream: stream, Seq: seq})
		if err != nil {
			return nil, err
		}
		var resp []byte
		for attempt := 0; attempt < snapPullRetries; attempt++ {
			resp, err = tr.Call(next)
			if err == nil || errors.Is(err, cluster.ErrRemote) {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		pe.peakFrame = max(pe.peakFrame, int64(len(resp)))
		t, payload, err := wire.Decode(resp)
		if err != nil {
			return nil, err
		}
		switch t {
		case wire.MsgSnapChunk:
			var ck wire.SnapChunk
			if err := wire.Unmarshal(payload, &ck); err != nil {
				return nil, err
			}
			if ck.Stream != stream || ck.Seq != seq {
				return nil, fmt.Errorf("coordinator: snapshot stream %d: got chunk %d/%d, want %d/%d",
					stream, ck.Stream, ck.Seq, stream, seq)
			}
			if err := pe.add(&ck.Part); err != nil {
				return nil, err
			}
		case wire.MsgSnapEnd:
			var end wire.SnapEnd
			if err := wire.Unmarshal(payload, &end); err != nil {
				return nil, err
			}
			if end.Stream != stream || end.Epoch != pe.epoch {
				return nil, fmt.Errorf("coordinator: snapshot stream %d epoch %d: end for stream %d epoch %d",
					stream, pe.epoch, end.Stream, end.Epoch)
			}
			if end.Chunks != uint64(pe.chunks) {
				return nil, fmt.Errorf("coordinator: snapshot stream %d truncated: pulled %d chunk(s), worker served %d",
					stream, pe.chunks, end.Chunks)
			}
			return pe, nil
		default:
			return nil, fmt.Errorf("%w: got %s in snapshot stream", wire.ErrUnexpectedType, wire.MsgName(t))
		}
	}
}

// pushSnapshot restores a worker's retained chain into its freshly
// deployed replacement, part by part: the newest epoch's metadata parts,
// then per SE instance its base parts followed by its delta parts in epoch
// order. Called under injMu's write side, before replay.
func (c *Coordinator) pushSnapshot(rs *retainedSnap, ep WorkerEndpoint) error {
	c.snapStreams++
	stream := c.snapStreams
	frame, err := wire.Encode(wire.MsgRestoreBegin, wire.RestoreBegin{Stream: stream})
	if err != nil {
		return err
	}
	var bAck wire.RestoreBeginAck
	if err := call(ep.Data, frame, wire.MsgRestoreBeginAck, &bAck); err != nil {
		return err
	}
	var seq uint64
	push := func(recs [][]byte) error {
		for _, rec := range recs {
			part, err := decodeSnapRecord(rec)
			if err != nil {
				return err
			}
			seq++
			frame, err := wire.Encode(wire.MsgRestoreChunk, wire.RestoreChunk{Stream: stream, Seq: seq, Part: part})
			if err != nil {
				return err
			}
			c.notePeak(int64(len(frame)))
			var ack wire.RestoreChunkAck
			if err := callRetry(ep.Data, frame, wire.MsgRestoreChunkAck, &ack); err != nil {
				return err
			}
			if ack.Stream != stream || ack.Seq != seq {
				return fmt.Errorf("coordinator: restore stream %d: acked %d/%d, want %d/%d",
					stream, ack.Stream, ack.Seq, stream, seq)
			}
		}
		return nil
	}
	if err := push(rs.meta); err != nil {
		return err
	}
	for _, k := range rs.order {
		if err := push(rs.ses[k].recs); err != nil {
			return err
		}
	}
	end, err := wire.Encode(wire.MsgRestoreEnd, wire.RestoreEnd{Stream: stream, Chunks: seq})
	if err != nil {
		return err
	}
	var eAck wire.RestoreEndAck
	return callRetry(ep.Data, end, wire.MsgRestoreEndAck, &eAck)
}
