package translator

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

const testTimeout = 5 * time.Second

// cfProgram is Alg. 1 of the paper, written in the translator IR:
//
//	@Partitioned Matrix userItem;  @Partial Matrix coOcc;
//	void addRating(user, item, rating) { ... }
//	Vector getRec(user) { ... merge(@Global coOcc.multiply(userRow)) ... }
func cfProgram() *Program {
	return &Program{
		Name: "cf",
		Fields: []Field{
			{Name: "userItem", Type: state.TypeMatrix, Ann: AnnPartitioned},
			{Name: "coOcc", Type: state.TypeMatrix, Ann: AnnPartial},
		},
		MergeFuncs: map[string]func([]any) any{
			// merge(@Collection Vector[] allUserRec): element-wise sum.
			"sumVectors": func(parts []any) any {
				rec := map[int64]float64{}
				for _, p := range parts {
					if m, ok := p.(map[int64]float64); ok {
						for k, v := range m {
							rec[k] += v
						}
					}
				}
				return rec
			},
		},
		Methods: []*Method{
			{
				Name:   "addRating",
				Params: []string{"user", "item", "rating"},
				Body: []Stmt{
					// userItem.setElement(user, item, rating)
					StateUpdate{Field: "userItem", Op: "set",
						Args: []Expr{Var{"user"}, Var{"item"}, Var{"rating"}}},
					// Vector userRow = userItem.getRow(user)
					Assign{Var: "userRow", Expr: StateRead{Field: "userItem", Op: "row",
						Args: []Expr{Var{"user"}}}},
					// for (i, r) in userRow: if r > 0 && i != item:
					//   coOcc[item][i]++; coOcc[i][item]++
					ForEach{KeyVar: "i", ValVar: "r", Over: Var{"userRow"}, Body: []Stmt{
						If{Cond: BinOp{Op: ">", L: Var{"r"}, R: Const{0.0}}, Then: []Stmt{
							If{Cond: BinOp{Op: "!=", L: Var{"i"}, R: Var{"item"}}, Then: []Stmt{
								StateUpdate{Field: "coOcc", Op: "add",
									Args: []Expr{Var{"item"}, Var{"i"}, Const{1.0}}},
								StateUpdate{Field: "coOcc", Op: "add",
									Args: []Expr{Var{"i"}, Var{"item"}, Const{1.0}}},
							}},
						}},
					}},
				},
			},
			{
				Name:   "getRec",
				Params: []string{"user"},
				Body: []Stmt{
					// Vector userRow = userItem.getRow(user)
					Assign{Var: "userRow", Expr: StateRead{Field: "userItem", Op: "row",
						Args: []Expr{Var{"user"}}}},
					// @Partial Vector userRec = @Global coOcc.multiply(userRow)
					Assign{Var: "userRec", Partial: true,
						Expr: StateRead{Field: "coOcc", Op: "mulvec",
							Args: []Expr{Var{"userRow"}}, Global: true}},
					// Vector rec = merge(@Global userRec)
					Assign{Var: "rec", Expr: MergeCall{Func: "sumVectors", Arg: Var{"userRec"}}},
					Return{Expr: Var{"rec"}},
				},
			},
		},
	}
}

func TestCFTranslationMatchesFig1(t *testing.T) {
	plan, err := Translate(cfProgram())
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph
	// Fig. 1: five TEs, two SEs.
	if len(g.TEs) != 5 {
		names := make([]string, len(g.TEs))
		for i, te := range g.TEs {
			names[i] = te.Name
		}
		t.Fatalf("TEs = %v, want 5 (Fig. 1)", names)
	}
	if len(g.SEs) != 2 {
		t.Fatalf("SEs = %d, want 2", len(g.SEs))
	}
	if g.SEs[0].Kind != core.KindPartitioned || g.SEs[1].Kind != core.KindPartial {
		t.Fatal("SE kinds do not match annotations")
	}
	// Dispatch semantics: one-to-any into the coOcc update (rule 4),
	// one-to-all into the global read (rule 3), all-to-one into the merge
	// (rule 5).
	dispatches := map[core.Dispatch]int{}
	for _, e := range g.Edges {
		dispatches[e.Dispatch]++
	}
	if dispatches[core.DispatchOneToAny] != 1 ||
		dispatches[core.DispatchOneToAll] != 1 ||
		dispatches[core.DispatchAllToOne] != 1 {
		t.Fatalf("dispatch histogram = %v", dispatches)
	}
	// Access-key extraction: both entries key on "user".
	if plan.EntryKey["addRating"] != "user" || plan.EntryKey["getRec"] != "user" {
		t.Fatalf("entry keys = %v", plan.EntryKey)
	}
	// Live variables on the addRating edge: the co-occurrence update needs
	// the item id and the user row (the paper's live-variable example).
	var found bool
	for _, e := range plan.Edges {
		if e.From == "addRating" {
			found = true
			carries := map[string]bool{}
			for _, v := range e.Carries {
				carries[v] = true
			}
			if !carries["item"] || !carries["userRow"] {
				t.Errorf("addRating edge carries %v, want item+userRow", e.Carries)
			}
			if carries["rating"] {
				t.Errorf("rating is dead after the first TE but carried: %v", e.Carries)
			}
		}
	}
	if !found {
		t.Fatal("no edge out of addRating")
	}
	// Validation passed inside Translate; double-check allocation matches
	// the paper's three nodes.
	if a := g.Allocate(); a.Nodes != 3 {
		t.Errorf("allocation = %d nodes, want 3", a.Nodes)
	}
}

func TestCFTranslatedProgramExecutes(t *testing.T) {
	app, err := DeployProgram(cfProgram(), runtime.Options{
		Partitions: map[string]int{"userItem": 2, "coOcc": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	// User 1 rates items 10, 20; user 2 rates items 10, 30.
	ratings := [][3]int{{1, 10, 5}, {1, 20, 4}, {2, 10, 5}, {2, 30, 3}}
	for _, r := range ratings {
		if err := app.Invoke("addRating", r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	if !app.Runtime().Drain(testTimeout) {
		t.Fatal("drain")
	}
	got, err := app.Call("getRec", testTimeout, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := got.(map[int64]float64)
	if !ok {
		t.Fatalf("getRec returned %T", got)
	}
	// Item 30 co-occurs with item 10 via user 2: it must be recommended to
	// user 1 (who rated item 10).
	if rec[30] <= 0 {
		t.Fatalf("rec[30] = %f, want positive (rec=%v)", rec[30], rec)
	}
}

func TestTranslationErrors(t *testing.T) {
	base := func() *Program {
		return &Program{
			Name:   "p",
			Fields: []Field{{Name: "m", Type: state.TypeMatrix, Ann: AnnPartitioned}},
			Methods: []*Method{{
				Name: "f", Params: []string{"k"},
				Body: []Stmt{StateUpdate{Field: "m", Op: "set",
					Args: []Expr{Var{"k"}, Const{0}, Const{1.0}}}},
			}},
		}
	}

	t.Run("no methods", func(t *testing.T) {
		p := base()
		p.Methods = nil
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail")
		}
	})
	t.Run("duplicate fields", func(t *testing.T) {
		p := base()
		p.Fields = append(p.Fields, p.Fields[0])
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail")
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		p := base()
		p.Methods[0].Body = []Stmt{StateUpdate{Field: "nope", Op: "set",
			Args: []Expr{Var{"k"}, Const{0}, Const{1.0}}}}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail")
		}
	})
	t.Run("global on partitioned", func(t *testing.T) {
		p := base()
		p.Methods[0].Body = []Stmt{Assign{Var: "x",
			Expr: StateRead{Field: "m", Op: "row", Args: []Expr{Var{"k"}}, Global: true}}}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail")
		}
	})
	t.Run("constant key", func(t *testing.T) {
		p := base()
		p.Methods[0].Body = []Stmt{StateUpdate{Field: "m", Op: "set",
			Args: []Expr{Const{1}, Const{0}, Const{1.0}}}}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail: constant keys have no access variable")
		}
	})
	t.Run("unannotated partial variable", func(t *testing.T) {
		p := base()
		p.Fields = append(p.Fields, Field{Name: "part", Type: state.TypeMatrix, Ann: AnnPartial})
		p.Methods[0].Body = []Stmt{
			Assign{Var: "x", Expr: StateRead{Field: "part", Op: "row",
				Args: []Expr{Var{"k"}}, Global: true}}, // Partial flag missing
		}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail: @Global result must be @Partial")
		}
	})
	t.Run("partial var escapes merge", func(t *testing.T) {
		p := base()
		p.Fields = append(p.Fields, Field{Name: "part", Type: state.TypeMatrix, Ann: AnnPartial})
		p.Methods[0].Body = []Stmt{
			Assign{Var: "x", Partial: true, Expr: StateRead{Field: "part", Op: "row",
				Args: []Expr{Var{"k"}}, Global: true}},
			Assign{Var: "y", Expr: BinOp{Op: "+", L: Var{"x"}, R: Const{1.0}}},
		}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail: partial variable used outside @Collection")
		}
	})
	t.Run("two SEs in one statement", func(t *testing.T) {
		p := base()
		p.Fields = append(p.Fields, Field{Name: "m2", Type: state.TypeMatrix, Ann: AnnPartitioned})
		p.Methods[0].Body = []Stmt{StateUpdate{Field: "m", Op: "set",
			Args: []Expr{Var{"k"}, Const{0},
				StateRead{Field: "m2", Op: "get", Args: []Expr{Var{"k"}, Const{0}}}}}}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail: one statement touches two SEs")
		}
	})
	t.Run("partitioned access after global", func(t *testing.T) {
		p := base()
		p.Fields = append(p.Fields, Field{Name: "part", Type: state.TypeMatrix, Ann: AnnPartial})
		p.Methods[0].Body = []Stmt{
			Assign{Var: "x", Partial: true, Expr: StateRead{Field: "part", Op: "row",
				Args: []Expr{Var{"k"}}, Global: true}},
			StateUpdate{Field: "m", Op: "set", Args: []Expr{Var{"k"}, Const{0}, Const{1.0}}},
		}
		if _, err := Translate(p); err == nil {
			t.Fatal("should fail: needs a @Collection merge between global and partitioned access")
		}
	})
}

func TestKeyChangeSplitsTE(t *testing.T) {
	// Rule 2's second clause: partitioned access to the *same* SE with a
	// new access key starts a new TE with a re-partitioned dataflow edge.
	p := &Program{
		Name:   "rekey",
		Fields: []Field{{Name: "m", Type: state.TypeMatrix, Ann: AnnPartitioned}},
		Methods: []*Method{{
			Name: "f", Params: []string{"a", "b"},
			Body: []Stmt{
				StateUpdate{Field: "m", Op: "set", Args: []Expr{Var{"a"}, Const{0}, Const{1.0}}},
				StateUpdate{Field: "m", Op: "set", Args: []Expr{Var{"b"}, Const{0}, Const{2.0}}},
			},
		}},
	}
	plan, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Graph.TEs) != 2 {
		t.Fatalf("TEs = %d, want 2 (key change must split)", len(plan.Graph.TEs))
	}
	if len(plan.Edges) != 1 || plan.Edges[0].Dispatch != core.DispatchPartitioned {
		t.Fatalf("edges = %+v", plan.Edges)
	}
	if plan.Edges[0].KeyVar != "b" {
		t.Fatalf("edge key var = %q, want b", plan.Edges[0].KeyVar)
	}
}

func TestLiveVariableAnalysis(t *testing.T) {
	// live-in of a block that uses x before defining y.
	stmts := []Stmt{
		Assign{Var: "y", Expr: BinOp{Op: "+", L: Var{"x"}, R: Const{1.0}}},
		Return{Expr: Var{"y"}},
	}
	live := liveIn(stmts, map[string]bool{})
	if !live["x"] || live["y"] {
		t.Fatalf("liveIn = %v, want {x}", live)
	}
	// Variables live after the block stay live unless defined.
	live = liveIn([]Stmt{Assign{Var: "z", Expr: Const{1.0}}}, map[string]bool{"w": true, "z": true})
	if !live["w"] || live["z"] {
		t.Fatalf("liveIn = %v, want {w}", live)
	}
}

func TestTranslatedKVProgramWithFailure(t *testing.T) {
	// A minimal dictionary program exercises the translated path end to
	// end including checkpointing and recovery.
	p := &Program{
		Name:   "dict",
		Fields: []Field{{Name: "store", Type: state.TypeKVMap, Ann: AnnPartitioned}},
		Methods: []*Method{
			{
				Name: "put", Params: []string{"k", "v"},
				Body: []Stmt{
					StateUpdate{Field: "store", Op: "put", Args: []Expr{Var{"k"}, Var{"v"}}},
					Return{Expr: Const{true}},
				},
			},
			{
				Name: "get", Params: []string{"k"},
				Body: []Stmt{
					Assign{Var: "v", Expr: StateRead{Field: "store", Op: "get", Args: []Expr{Var{"k"}}}},
					Return{Expr: Var{"v"}},
				},
			},
		},
	}
	app, err := DeployProgram(p, runtime.Options{
		Mode:     1, // checkpoint.ModeAsync
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	for k := 0; k < 20; k++ {
		if _, err := app.Call("put", testTimeout, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := app.Runtime().CheckpointNow("store", 0); err != nil {
		t.Fatal(err)
	}
	node := app.Runtime().Stats().SEs[0].Nodes[0]
	app.Runtime().KillNode(node)
	if _, err := app.Runtime().Recover("store", 1); err != nil {
		t.Fatal(err)
	}
	app.Runtime().Drain(testTimeout)
	for k := 0; k < 20; k++ {
		v, err := app.Call("get", testTimeout, k)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := v.([]byte); !ok || len(b) != 1 || b[0] != byte(k) {
			t.Fatalf("get %d = %v after recovery", k, v)
		}
	}
}

func TestAppArgumentErrors(t *testing.T) {
	app, err := DeployProgram(cfProgram(), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	if err := app.Invoke("nope", 1); err == nil {
		t.Error("unknown method should fail")
	}
	if err := app.Invoke("addRating", 1); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := app.Call("nope", testTimeout); err == nil {
		t.Error("unknown method call should fail")
	}
}

// TestEnvRoundTrip: an Env crosses the flat codec unchanged with every
// value type the interpreter produces, encodes its names in one order, and
// refuses a live variable that has no codec.
func TestEnvRoundTrip(t *testing.T) {
	full := Env{Vars: map[string]any{
		"user": int64(3), "item": 4, "seq": uint64(9), "r": 1.5, "ok": true,
		"name": "x", "blob": []byte(nil), "raw": []byte{1}, "none": nil,
		"row": map[int64]float64{1: 2}, "rowNil": map[int64]float64(nil),
		"w": []float64{0.5}, "wNil": []float64(nil),
	}}
	for _, v := range []any{full, Env{Vars: map[string]any{}}, Env{}, core.Collection{full, Env{}}} {
		got, err := flat.RoundTripValue(v)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("Env changed across the codec: %#v -> %#v", v, got)
		}
	}
	var a, b flat.Encoder
	if err := a.Value(full); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.Reset(nil)
		if err := b.Value(full); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Env does not encode deterministically (err %v)", err)
		}
	}
	if _, err := flat.RoundTripValue(Env{Vars: map[string]any{"c": make(chan int)}}); err == nil {
		t.Fatal("Env with a channel variable encoded without error")
	}
}
