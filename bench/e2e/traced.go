package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// runTraced is the per-layer run. The workers live in this process, over
// loopback TCP, so the span decorator sits on the worker-to-worker links
// too. A quarter of the time is an untraced baseline on the same
// deployment (tracing overhead is the difference), half is the traced
// closed and open phases, and the isolated layer timings take the rest.
func runTraced(sp spec, cfg runConfig) (*result, error) {
	res := newResult(sp, cfg)
	bin, built, err := buildWorker(cfg.root)
	if err != nil {
		return nil, err
	}
	res.set("process.build_s", built.Seconds(), "s", 0)
	proc, err := spawnProc(bin)
	if err != nil {
		return nil, err
	}
	proc.kill()
	res.set("process.spawn_ms", float64(proc.spawn)/1e6, "ms", 0)

	if err := isolatedLayers(res); err != nil {
		return nil, err
	}
	can, err := newCanary()
	if err != nil {
		return nil, err
	}
	defer can.close()

	tr := newTracer()
	lv, _, err := setUp(sp, cfg, "", tr)
	if err != nil {
		return nil, err
	}
	defer lv.d.close()

	quarter := time.Duration(cfg.seconds) * time.Second / 4
	var base float64
	if sp.cycleItems > 0 {
		cy, err := runCycles(sp, cfg, lv, quarter)
		if err != nil {
			return nil, err
		}
		base = median(cy.rates())
		res.Attempted += cy.inject.ops
	} else {
		closedPhase(workers, cfg.warm, lv.l.op, nil)
		var ckpts durs
		var ckptFailed int64
		p := closedPhase(workers, quarter, lv.l.op, checkpointer(sp, lv, &ckpts, &ckptFailed))
		base = median(p.blockRates())
		res.Attempted += p.ops
		res.Failed += ckptFailed
	}

	tr.on.Store(true)
	edges0 := lv.d.edgeCounts()
	if err := phases(sp, cfg, lv, 2*quarter, can, res); err != nil {
		return nil, err
	}
	tr.on.Store(false)
	if err := lv.d.coord.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	lv.d.reportEdges(res, edges0)
	st := lv.d.coord.SnapshotStats()
	res.set("coordinator.snap_chunks", float64(st.Chunks), "count", 0)
	res.set("coordinator.snap_raw_bytes", float64(st.RawBytes), "B", 0)
	res.set("coordinator.snap_stored_bytes", float64(st.StoredBytes), "B", 0)
	res.set("coordinator.snap_peak_frame_bytes", float64(st.PeakFrameBytes), "B", 0)
	if err := finish(lv, can, res); err != nil {
		return nil, err
	}

	traced := res.Metrics["work_per_s"].Value
	res.set("trace.overhead_pct", 100*(base-traced)/base, "%", 0)
	spans := tr.recorded()
	res.set("trace.spans", float64(len(spans)), "count", 0)
	analyse(spans, sp, res)
	dir, err := outDir(cfg.root)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// edgeCounts is a reading of the worker-to-worker counters.
type edgeCounts struct {
	frames, bytes                 int64 // everything on the peer links
	emitFrames, items, emitFailed int64 // RemoteEmit: accepted frames, their items, rejected frames
}

func (d *deployment) edgeCounts() edgeCounts {
	return edgeCounts{d.peerLinks.frames.Load(), d.peerLinks.bytes.Load(),
		d.emitFrames.Load(), d.emitItems.Load(), d.emitRejected.Load()}
}

// reportEdges writes the remoteedge.* metrics for the traffic since from.
func (d *deployment) reportEdges(res *result, from edgeCounts) {
	now := d.edgeCounts()
	bytes, frames, items, failed := now.bytes-from.bytes, now.emitFrames-from.emitFrames,
		now.items-from.items, now.emitFailed-from.emitFailed
	res.set("remoteedge.frames", float64(now.frames-from.frames), "count", 0)
	if items > 0 {
		res.set("remoteedge.remote_share", float64(items)/float64(res.units), "ratio", int(res.units))
		res.set("remoteedge.bytes_per_remote_item", float64(bytes)/float64(items), "B", int(items))
		res.set("remoteedge.items_per_frame", float64(items)/float64(frames), "count", int(frames))
		res.set("remoteedge.retry_share", float64(failed)/float64(frames+failed), "ratio", int(frames+failed))
	}
	logged := 0
	for _, h := range d.hosts {
		if lh, ok := h.(*localHost); ok {
			logged += lh.w.PendingEdgeItems()
		}
	}
	res.set("remoteedge.log_items_after_trim", float64(logged), "count", 0)
}

// analyse turns the spans into the coordinator, cluster and worker layer
// metrics. A root's self time is its duration minus its link spans; the
// wait for the coordinator's injection lock (plus the encode) is the gap
// before its first link span.
func analyse(spans []span, sp spec, res *result) {
	kids := map[uint64][]span{}
	byName := map[string]durs{}
	var ctrlBytes float64
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		if s.Parent != 0 || strings.Contains(s.Name, ":") {
			byName[s.Name] = append(byName[s.Name], s.dur())
		}
		if strings.HasPrefix(s.Name, "ctrl:") {
			ctrlBytes += float64(s.Bytes)
		}
	}
	// The op's metrics carry its kind in their names: a kv run fills the
	// call_* ones and leaves the inject ones at 0, an ingest run the reverse.
	opRoot, coordOp, frameOp, rtt := "Coordinator.Call", "call", "call", res.Metrics["cluster.rtt_128b_p50_us"].Value
	if sp.graph != "kv" {
		opRoot, coordOp, frameOp, rtt = "Coordinator.InjectBatch", "injectbatch", "inject256", res.Metrics["cluster.rtt_2560b_p50_us"].Value
	}
	byOp := map[string]durs{}
	var self, lockWait, dataOp durs
	var frames, bytes float64
	ops := 0
	recover := map[string]durs{}
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		switch s.Name {
		case opRoot:
			ops++
			byOp[s.Op] = append(byOp[s.Op], s.dur())
			covered, first := 0.0, int64(-1)
			for _, k := range kids[s.ID] {
				covered += k.dur()
				frames++
				bytes += float64(k.Bytes)
				dataOp = append(dataOp, k.dur())
				if first < 0 || k.StartNs < first {
					first = k.StartNs
				}
			}
			self = append(self, s.dur()-covered)
			if first >= 0 {
				lockWait = append(lockWait, float64(first-s.StartNs))
			}
		case "Coordinator.RecoverWorker":
			sums := map[string]float64{}
			for _, k := range kids[s.ID] {
				switch {
				case k.Name == "data:Deploy":
					sums["deploy"] += k.dur()
				case strings.HasPrefix(k.Name, "data:Restore"):
					sums["restore"] += k.dur()
				case k.Name == "data:Inject":
					sums["replay"] += k.dur()
				case k.Name == "ctrl:Peers":
					sums["peers"] += k.dur()
				}
			}
			for _, part := range []string{"deploy", "restore", "replay", "peers"} {
				recover[part] = append(recover[part], sums[part])
			}
		}
	}
	res.set("coordinator."+coordOp+"_self_p50_us", median(self)/1e3, "us", len(self))
	res.set("coordinator."+coordOp+"_lock_wait_p50_us", median(lockWait)/1e3, "us", len(lockWait))
	res.set("cluster.data_"+frameOp+"_p50_us", median(dataOp)/1e3, "us", len(dataOp))
	for _, op := range []string{"get", "put"} {
		if d := byOp[op]; len(d) > 0 {
			res.set("driver."+op+"_p50_us", median(d)/1e3, "us", len(d))
		}
	}
	if ops > 0 {
		res.set("cluster.data_frames_per_op", frames/float64(ops), "count", ops)
		res.set("cluster.data_bytes_per_op", bytes/float64(ops), "B", ops)
	}
	res.set("cluster.ctrl_bytes", ctrlBytes, "B", 0)
	res.set("worker."+frameOp+"_residence_p50_us", median(dataOp)/1e3-rtt, "us", len(dataOp))
	if d := byName["ctrl:SnapNext"]; len(d) > 0 {
		res.set("worker.snap_chunk_serve_p50_ms", median(d)/1e6, "ms", len(d))
	}
	if d := byName["data:RestoreChunk"]; len(d) > 0 {
		res.set("worker.restore_chunk_apply_p50_ms", median(d)/1e6, "ms", len(d))
	}
	if d := byName["peer:RemoteEmit"]; len(d) > 0 {
		res.set("remoteedge.emit_call_p50_us", median(d)/1e3, "us", len(d))
	}
	for part, d := range recover {
		res.set("coordinator.recover_"+part+"_ms", median(d)/1e6, "ms", len(d))
	}

	// The budget: how much of the median op (or cycle) the attributed
	// parts leave unexplained. Expected large until spans are recorded
	// inside the program; reported, never gated.
	var whole, explained float64
	if sp.cycleItems > 0 {
		whole = res.Metrics["driver.cycle_s"].Value * 1e6
		explained = res.Metrics["driver.cycle_inject_s"].Value*1e6 + res.Metrics["driver.ckpt_s"].Value*1e6 +
			res.Metrics["driver.detect_ms"].Value*1e3 + res.Metrics["driver.recover_s"].Value*1e6 +
			res.Metrics["driver.drain_ms"].Value*1e3
	} else {
		whole = res.Metrics["driver.op_p50_ms"].Value * 1e3
		inside := res.Metrics["runtime.call_p50_us"].Value
		if sp.graph != "kv" {
			// An InjectBatch returns at enqueue; processing is not on its path.
			inside = (res.Metrics["wire.inject256_dec_ns"].Value) / 1e3
		}
		explained = median(self)/1e3 + rtt + inside
	}
	if whole > 0 {
		res.set("budget."+sp.name+"_unexplained_pct", 100*(whole-explained)/whole, "%", 0)
	}
}
