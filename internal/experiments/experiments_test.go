package experiments

import (
	"strings"
	"testing"
	"time"
)

// tiny keeps test runs short; shape assertions tolerate the noise.
var tiny = Scale{PointDuration: 250 * time.Millisecond, Clients: 4}

func TestTable1Structure(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 15 {
		t.Fatalf("Table 1 rows = %d, want 15 systems", len(tbl.Rows))
	}
	out := tbl.String()
	for _, sys := range []string{"MapReduce", "Spark", "Naiad", "SEEP", "Piccolo", "SDG"} {
		if !strings.Contains(out, sys) {
			t.Errorf("table missing %q", sys)
		}
	}
	// The SDG row must claim the paper's unique combination.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[1] != "SDG (this repo)" || last[9] != "async. local checkpoints" {
		t.Errorf("SDG row = %v", last)
	}
}

func TestFig5Shape(t *testing.T) {
	rows, tbl, err := Fig5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("ratio %s: zero throughput", r.Ratio)
		}
	}
	// Read latency must be recorded for read-heavy points.
	if rows[4].Latency.P50 <= 0 {
		t.Error("no latency recorded at 5:1")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		// Degradation ratios are only meaningful when each measurement
		// window spans several checkpoint intervals; the short path trims
		// the sweep and checks structure only.
		rows, _, err := fig6(tiny, []int64{1 << 20, 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, r := range rows {
			seen[r.System]++
			if r.Throughput <= 0 {
				t.Errorf("%s @%d: zero throughput", r.System, r.StateBytes)
			}
		}
		for _, sys := range []string{"SDG", "Naiad-Disk", "Naiad-NoDisk"} {
			if seen[sys] != 2 {
				t.Errorf("system %s: %d rows, want 2", sys, seen[sys])
			}
		}
		return
	}
	// Full mode: each point spans 3 checkpoint intervals (fig6Interval is
	// 300ms), so at least one Naiad stop-the-world checkpoint is guaranteed
	// to land inside every measurement window. The collapse assertions work
	// on the observed checkpoint pauses rather than throughput ratios:
	// pauses are floored by the modelled disk bandwidth (an exact sleep of
	// size/BW), so they hold on any machine, whereas throughput ratios on a
	// loaded single-core CI box measure scheduler noise — the engine is
	// backpressure-gated and simply catches up after a stall (observed
	// flake: degradation ratio 1.03 vs 1.01).
	scale := Scale{PointDuration: 3 * fig6Interval, Clients: 4}
	rows, _, err := fig6(scale, fig6Sizes)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int64]Fig6Row{}
	for _, r := range rows {
		if byKey[r.System] == nil {
			byKey[r.System] = map[int64]Fig6Row{}
		}
		byKey[r.System][r.StateBytes] = r
		if r.Throughput <= 0 {
			t.Errorf("%s @%d: zero throughput", r.System, r.StateBytes)
		}
	}
	small, large := int64(1<<20), int64(16<<20)
	// SDG stays roughly flat: large-state throughput within 2.5x of small
	// (paper: unaffected; the slack absorbs scheduler noise at test scale).
	sdg := byKey["SDG"]
	if sdg[large].Throughput < sdg[small].Throughput/2.5 {
		t.Errorf("SDG collapsed with state: %.0f -> %.0f",
			sdg[small].Throughput, sdg[large].Throughput)
	}
	// Naiad-Disk's stop-the-world pause scales with state: at 16MB the
	// modelled disk write alone is ~350ms (the serialised payload is ~70%
	// of the accounted state size), and 16x the 1MB pause by construction.
	nd := byKey["Naiad-Disk"]
	floor := time.Duration(float64(large) * 0.7 / fig6DiskBW * float64(time.Second))
	if nd[large].WorstPause < floor {
		t.Errorf("Naiad-Disk large-state pause %v below modelled disk floor %v",
			nd[large].WorstPause, floor)
	}
	if nd[small].WorstPause <= 0 {
		t.Error("Naiad-Disk took no checkpoint inside the small-state window")
	} else if nd[large].WorstPause < 8*nd[small].WorstPause {
		t.Errorf("Naiad-Disk pause should grow ~16x with state: %v -> %v",
			nd[small].WorstPause, nd[large].WorstPause)
	}
	// The RAM-disk variant pauses only for serialisation, far below the
	// disk-bound pause — the disk is what collapses Naiad-Disk.
	ndisk := byKey["Naiad-NoDisk"]
	if ndisk[large].WorstPause >= nd[large].WorstPause {
		t.Errorf("Naiad-NoDisk pause %v should be below Naiad-Disk %v",
			ndisk[large].WorstPause, nd[large].WorstPause)
	}
	// SDG's dirty-state protocol never stalls requests for a whole-state
	// write: its p95 at large state stays below Naiad-Disk's single pause.
	if sdg[large].P95 >= nd[large].WorstPause {
		t.Errorf("SDG p95 %v should beat Naiad-Disk's stop-the-world pause %v",
			sdg[large].P95, nd[large].WorstPause)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, _, err := Fig7(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if testing.Short() {
		return // scaling ratios are meaningless on race-slowed CI machines
	}
	// Throughput grows with nodes (allowing noise: the 8-node point must
	// beat the 1-node point by at least 1.5x).
	first, last := rows[0], rows[len(rows)-1]
	if last.Throughput < first.Throughput*1.5 {
		t.Errorf("no scaling: %d nodes %.0f -> %d nodes %.0f",
			first.Nodes, first.Throughput, last.Nodes, last.Throughput)
	}
	for _, r := range rows {
		if r.Latency.P50 <= 0 {
			t.Errorf("nodes=%d: no latency", r.Nodes)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, _, err := Fig8(tiny)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys string, win time.Duration) Fig8Row {
		for _, r := range rows {
			if r.System == sys && r.Window == win {
				return r
			}
		}
		t.Fatalf("missing row %s@%v", sys, win)
		return Fig8Row{}
	}
	smallest, largest := 5*time.Millisecond, 150*time.Millisecond
	if testing.Short() {
		// Sustainability is a timing judgement; structure only under -short.
		get("SDG", smallest)
		get("StreamingSpark", largest)
		return
	}
	// SDG sustains every window.
	for _, r := range rows {
		if r.System == "SDG" && !r.Sustainable {
			t.Errorf("SDG unsustainable at %v", r.Window)
		}
	}
	// Streaming Spark collapses at the smallest window but sustains the
	// largest.
	if get("StreamingSpark", smallest).Sustainable {
		t.Error("StreamingSpark should collapse at the smallest window")
	}
	if !get("StreamingSpark", largest).Sustainable {
		t.Error("StreamingSpark should sustain the largest window")
	}
	// Naiad-HighThroughput cannot sustain the smallest window either.
	if get("Naiad-HighThroughput", smallest).Sustainable {
		t.Error("Naiad-HighThroughput should fail the smallest window")
	}
}

func TestFig9Shape(t *testing.T) {
	rows, _, err := Fig9(tiny)
	if err != nil {
		t.Fatal(err)
	}
	sdg := map[int]float64{}
	spark := map[int]float64{}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("%s@%d: zero throughput", r.System, r.Nodes)
		}
		if r.System == "SDG" {
			sdg[r.Nodes] = r.Throughput
		} else {
			spark[r.Nodes] = r.Throughput
		}
	}
	if testing.Short() {
		return // scaling ratios are meaningless on race-slowed CI machines
	}
	// Both scale with workers; SDG at least matches Spark at max width.
	if sdg[4] < sdg[1] {
		t.Errorf("SDG did not scale: %f -> %f", sdg[1], sdg[4])
	}
	if spark[4] < spark[1] {
		t.Errorf("Spark did not scale: %f -> %f", spark[1], spark[4])
	}
	if sdg[4] < spark[4]*0.8 {
		t.Errorf("SDG (%f) should be at least comparable to Spark (%f)", sdg[4], spark[4])
	}
}

func TestFig11Shape(t *testing.T) {
	rows, _, err := Fig11(tiny)
	if err != nil {
		t.Fatal(err)
	}
	get := func(size int64, m, n int) time.Duration {
		for _, r := range rows {
			if r.StateBytes == size && r.M == m && r.N == n {
				return r.Recovery
			}
		}
		t.Fatalf("missing %d %d-%d", size, m, n)
		return 0
	}
	large := int64(24 << 20)
	if testing.Short() {
		get(large, 2, 2) // rows present for every strategy
		get(large, 1, 1)
		return
	}
	// 2-to-2 must beat 1-to-1 at the largest state.
	if get(large, 2, 2) >= get(large, 1, 1) {
		t.Errorf("2-to-2 (%v) should beat 1-to-1 (%v)", get(large, 2, 2), get(large, 1, 1))
	}
	// Recovery time grows with state under the slowest strategy.
	if get(large, 1, 1) <= get(2<<20, 1, 1) {
		t.Errorf("1-to-1 recovery should grow with state: %v vs %v",
			get(2<<20, 1, 1), get(large, 1, 1))
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sync-vs-async checkpoint sweep needs tens of seconds of stall sampling")
	}
	rows, _, err := Fig12(tiny)
	if err != nil {
		t.Fatal(err)
	}
	tput := map[string]map[int64]float64{}
	worst := map[string]map[int64]time.Duration{}
	for _, r := range rows {
		if tput[r.Mode] == nil {
			tput[r.Mode] = map[int64]float64{}
			worst[r.Mode] = map[int64]time.Duration{}
		}
		tput[r.Mode][r.StateBytes] = r.Throughput
		worst[r.Mode][r.StateBytes] = r.Worst
	}
	large := int64(16 << 20)
	// Async beats sync on throughput and worst-case latency at large state.
	if tput["async"][large] <= tput["sync"][large] {
		t.Errorf("async tput %.0f should beat sync %.0f at large state",
			tput["async"][large], tput["sync"][large])
	}
	if worst["async"][large] >= worst["sync"][large] {
		t.Errorf("async worst-case %v should beat sync %v at large state",
			worst["async"][large], worst["sync"][large])
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("frequency/size sweep is the longest experiment (~1 min)")
	}
	freqRows, sizeRows, tbl, err := Fig13(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
	// Checkpoint cost on the modelled backup disks: No FT writes nothing,
	// and every checkpointing row writes at least half a base of its state
	// (a base carries every preloaded value). Not a whole base: the first
	// checkpoint can start while the preload is still filling the store,
	// and on a loaded host that nearly-full base can still be in flight
	// when the run stops, so it is the only one. A checkpoint that saw
	// under half the state would have to outlast the whole measurement
	// window with under half a base to write.
	for _, r := range append(append([]Fig13Row(nil), freqRows...), sizeRows...) {
		base := r.StateBytes / (fig13ValueSize + preloadEntryOverhead) * fig13ValueSize
		switch {
		case r.Label == "No FT" && r.DiskBytes != 0:
			t.Errorf("No FT wrote %d bytes to the backup disks", r.DiskBytes)
		case r.Label != "No FT" && 2*r.DiskBytes < base:
			t.Errorf("checkpointing %s wrote %d bytes, under half a %d-byte base", r.Label, r.DiskBytes, base)
		}
	}
	if len(sizeRows) < 3 {
		t.Fatalf("size rows = %d", len(sizeRows))
	}
	// Checkpointing the largest state must produce worst-case stalls far
	// beyond the typical tail (merge locks + disk writes). The No-FT
	// baseline's own maximum is too noisy on a shared host to compare
	// against directly (a single scheduler hiccup dominates it), so the
	// assertion is against the run's own distribution.
	largest := sizeRows[len(sizeRows)-1]
	if largest.Worst < time.Millisecond {
		t.Errorf("largest-state worst %v should show millisecond-scale checkpoint stalls", largest.Worst)
	}
	if largest.Latency.P95 > 0 && largest.Worst < 2*largest.Latency.P95 {
		t.Errorf("largest-state worst %v should clearly exceed its p95 %v",
			largest.Worst, largest.Latency.P95)
	}
}

func TestRunnerKnowsAllExperiments(t *testing.T) {
	r := &Runner{Scale: tiny, Out: discard{}}
	if err := r.Run("0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown id should fail")
	}
	if len(Known) != 10 {
		t.Fatalf("Known = %v", Known)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestFig10Shape(t *testing.T) {
	series, events, tbl, err := Fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
	if testing.Short() {
		// The controller's cooldown is wall-clock-driven; on a race-slowed
		// machine the second scale action may not fire inside the window.
		if len(series) == 0 {
			t.Fatal("no timeline samples")
		}
		return
	}
	// Both scaling actions must have fired on the update TE.
	if len(events) < 2 {
		t.Fatalf("scale events = %+v, want 2 (bottleneck + straggler mitigation)", events)
	}
	for _, e := range events {
		if e.TE != "updateCoOcc" {
			t.Errorf("scaled %q, want updateCoOcc", e.TE)
		}
	}
	// The paper's staircase: throughput after the final scale-up must
	// clearly beat the single-instance phase.
	avg := func(points []Fig10Point, inst int) (float64, int) {
		sum, n := 0.0, 0
		for _, p := range points {
			if p.Nodes == inst {
				sum += p.Throughput
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	phase1, n1 := avg(series, 1)
	phase3, n3 := avg(series, 3)
	if n1 == 0 || n3 == 0 {
		t.Fatalf("missing phases: %d one-instance samples, %d three-instance samples", n1, n3)
	}
	if phase3 < phase1*1.5 {
		t.Errorf("straggler mitigation gain too small: %.0f -> %.0f updates/s", phase1, phase3)
	}
}
