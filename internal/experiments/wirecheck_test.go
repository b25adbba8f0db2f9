package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/cf"
	"repro/internal/apps/kv"
	"repro/internal/apps/logreg"
	"repro/internal/apps/wordcount"
	"repro/internal/runtime"
	"repro/internal/translator"
	"repro/internal/workload"
)

const wireTimeout = 10 * time.Second

// cfSource is Alg. 1 of the paper as annotated Go, for the translated run.
const cfSource = `package cf

//sdg:state partitioned
var userItem Matrix

//sdg:state partial
var coOcc Matrix

func addRating(user, item, rating int) {
	userItem.Set(user, item, rating)
	userRow := userItem.Row(user)
	for i, r := range userRow {
		if r > 0 {
			if i != item {
				coOcc.Add(item, i, 1)
				coOcc.Add(i, item, 1)
			}
		}
	}
}

func getRec(user int) {
	userRow := userItem.Row(user)
	userRec := coOcc.GlobalMulvec(userRow)
	rec := sumVectors(userRec)
	return rec
}
`

// TestWireCheckAcrossApps checks location independence (§4.1) for every
// built-in application: with WireCheck on, every payload on every edge
// crosses the flat codec, so a payload type without a codec panics. Each
// workload must give the same result with and without the check. Linking
// all the applications into one binary also proves their payload tags are
// distinct (a duplicate panics at init).
func TestWireCheckAcrossApps(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, opts runtime.Options) any
	}{
		{"kv", runKVWire},
		{"cf", runCFWire},
		{"wordcount", runWordcountWire},
		{"logreg", runLogregWire},
		{"translated cf", runTranslatedCFWire},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.run(t, runtime.Options{})
			checked := tc.run(t, runtime.Options{WireCheck: true})
			if !reflect.DeepEqual(plain, checked) {
				t.Fatalf("WireCheck changed the result:\n without %v\n    with %v", plain, checked)
			}
		})
	}
}

func drainOrFail(t *testing.T, rt *runtime.Runtime) {
	t.Helper()
	if !rt.Drain(wireTimeout) {
		t.Fatal("drain")
	}
}

func runKVWire(t *testing.T, opts runtime.Options) any {
	s, err := kv.New(kv.Config{Partitions: 2, Runtime: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for k := uint64(0); k < 40; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", k)), wireTimeout); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for k := uint64(0); k < 40; k++ {
		v, err := s.Get(k, wireTimeout)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(v))
	}
	return got
}

// runCFWire rates, then asks for recommendations merged over two coOcc
// replicas; the merged vectors are sums of small integers, so they are
// exact whichever replica each update landed on.
func runCFWire(t *testing.T, opts runtime.Options) any {
	c, err := cf.New(cf.Config{UserPartitions: 2, CoOccReplicas: 2, Runtime: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	gen := workload.NewRatingGen(3, 20, 15)
	for i := 0; i < 120; i++ {
		r := gen.Next()
		if err := c.AddRating(r.User, r.Item, r.Rating); err != nil {
			t.Fatal(err)
		}
	}
	drainOrFail(t, c.Runtime())
	recs := map[int]cf.Recommendation{}
	for user := 0; user < 20; user++ {
		rec, err := c.GetRec(user, wireTimeout)
		if err != nil {
			t.Fatal(err)
		}
		recs[user] = rec
	}
	return recs
}

// runWordcountWire feeds one window, then a line of the next, so the count
// TE flushes a WindowReport and rotates its state.
func runWordcountWire(t *testing.T, opts runtime.Options) any {
	var mu sync.Mutex
	var reports []wordcount.WindowReport
	w, err := wordcount.New(wordcount.Config{
		Window:     100 * time.Millisecond,
		Partitions: 1,
		OnReport: func(r wordcount.WindowReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
		Runtime: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	base := time.Unix(1000, 0)
	for i, line := range [][]string{{"x", "y"}, {"x"}, {"y", "y", "z"}} {
		if err := w.FeedAt(line, base.Add(time.Duration(i)*10*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	drainOrFail(t, w.Runtime())
	if err := w.FeedAt([]string{"z", "w"}, base.Add(150*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, w.Runtime())
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v, want one window flush", reports)
	}
	return []any{reports[0], w.Counts("z"), w.Counts("w"), w.Counts("x")}
}

// runLogregWire trains, then syncs two weight replicas. Draining after
// every batch leaves all queues empty, so one-to-any dispatch sends each
// batch to the same replica and the run is deterministic.
func runLogregWire(t *testing.T, opts runtime.Options) any {
	lr, err := logreg.New(logreg.Config{Dim: 4, Workers: 2, Runtime: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Stop()
	train := workload.NewPointGen(5, 4, 0.01).Batch(200)
	for i := 0; i < len(train); i += 50 {
		if err := lr.Train(train[i : i+50]); err != nil {
			t.Fatal(err)
		}
		drainOrFail(t, lr.Runtime())
	}
	var synced [][]float64
	for i := 0; i < 2; i++ {
		w, err := lr.Sync(wireTimeout)
		if err != nil {
			t.Fatal(err)
		}
		drainOrFail(t, lr.Runtime())
		synced = append(synced, w)
	}
	return synced
}

func runTranslatedCFWire(t *testing.T, opts runtime.Options) any {
	merges := map[string]func([]any) any{
		"sumVectors": func(parts []any) any {
			rec := map[int64]float64{}
			for _, p := range parts {
				for k, v := range p.(map[int64]float64) {
					rec[k] += v
				}
			}
			return rec
		},
	}
	prog, err := translator.ParseGoProgram("cf", cfSource, merges)
	if err != nil {
		t.Fatal(err)
	}
	opts.Partitions = map[string]int{"userItem": 2, "coOcc": 2}
	app, err := translator.DeployProgram(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	for _, r := range [][3]int{{1, 10, 5}, {1, 20, 4}, {2, 10, 5}, {2, 30, 3}, {3, 20, 2}} {
		if err := app.Invoke("addRating", r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	drainOrFail(t, app.Runtime())
	var recs []any
	for user := 1; user <= 3; user++ {
		rec, err := app.Call("getRec", wireTimeout, user)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}
