package translator

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

// Env is the set of live variables carried on a dataflow edge (the paper's
// step 8: "serialise live variables and send them to the correct successor
// TE instance").
type Env struct {
	Vars map[string]any
}

// tagEnv is Env's flat codec tag; DESIGN.md "Wire format" lists every
// application tag.
const tagEnv uint64 = 11

func (Env) FlatTag() uint64 { return tagEnv }

// AppendFlat writes the variables in ascending name order, each value
// through the flat value codec, so equal environments encode to equal
// bytes.
func (env Env) AppendFlat(e *flat.Encoder) error {
	e.NilableCount(len(env.Vars), env.Vars == nil)
	for _, name := range slices.Sorted(maps.Keys(env.Vars)) {
		e.Str(name)
		if err := e.Value(env.Vars[name]); err != nil {
			return fmt.Errorf("translator: live variable %q: %w", name, err)
		}
	}
	return nil
}

func init() {
	flat.RegisterPayload(tagEnv, func(d *flat.Decoder) any {
		var env Env
		// A name costs at least its length byte and a value its tag byte.
		n, ok := d.NilableCount(2)
		if !ok {
			return env
		}
		env.Vars = make(map[string]any, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			name := d.Str()
			env.Vars[name] = d.Value()
		}
		return env
	})
}

// makeTaskFunc generates the executable form of one TE: an interpreter over
// the block's statements. This substitutes for java2sdg's bytecode
// assembly (steps 6-8): state accesses are served by the runtime-provided
// store, and at the block's exit the live variables are dispatched to the
// successor (keyed by the downstream block's access-key variable).
func makeTaskFunc(p *Program, a *analyzer, b *block, hasNext bool, nextKeyVar string, liveOut []string) core.TaskFunc {
	return func(ctx core.Context, it core.Item) {
		in := &interp{prog: p, ctx: ctx, env: map[string]any{}}
		switch v := it.Value.(type) {
		case nil:
		case Env:
			for k, val := range v.Vars {
				in.env[k] = val
			}
		case core.Collection:
			// Merge block input: one Env per upstream partial instance.
			in.coll = make([]Env, 0, len(v))
			for _, e := range v {
				env, ok := e.(Env)
				if !ok {
					return
				}
				in.coll = append(in.coll, env)
			}
			// Single-valued live variables are identical across the
			// broadcast wave; adopt them from any member.
			if len(in.coll) > 0 {
				for k, val := range in.coll[0].Vars {
					in.env[k] = val
				}
			}
		default:
			return
		}
		if err := in.exec(b.stmts); err != nil {
			// Translated programs are validated statically; runtime errors
			// indicate value-type misuse and abort the item.
			return
		}
		if in.returned {
			ctx.Reply(in.retVal)
		}
		if hasNext {
			// Only the live variables cross the TE boundary (step 5).
			out := Env{Vars: make(map[string]any, len(liveOut))}
			for _, v := range liveOut {
				if val, ok := in.env[v]; ok {
					out.Vars[v] = val
				}
			}
			var key uint64
			if nextKeyVar != "" {
				key = hashValue(in.env[nextKeyVar])
			}
			ctx.EmitReq(0, key, out)
		}
	}
}

// interp evaluates statements against an environment and a local store.
type interp struct {
	prog     *Program
	ctx      core.Context
	env      map[string]any
	coll     []Env // merge collection, when executing a merge block
	returned bool
	retVal   any
}

func (in *interp) exec(stmts []Stmt) error {
	for _, s := range stmts {
		if in.returned {
			return nil
		}
		switch v := s.(type) {
		case Assign:
			val, err := in.eval(v.Expr)
			if err != nil {
				return err
			}
			in.env[v.Var] = val
		case StateUpdate:
			if _, err := in.stateOp(v.Field, v.Op, v.Args); err != nil {
				return err
			}
		case Return:
			val, err := in.eval(v.Expr)
			if err != nil {
				return err
			}
			in.returned = true
			in.retVal = val
		case ForEach:
			over, err := in.eval(v.Over)
			if err != nil {
				return err
			}
			switch m := over.(type) {
			case map[int64]float64:
				// Deterministic iteration order (§4.1 requires determinism
				// for replay-based recovery).
				keys := make([]int64, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				for _, k := range keys {
					in.env[v.KeyVar] = float64(k)
					in.env[v.ValVar] = m[k]
					if err := in.exec(v.Body); err != nil {
						return err
					}
				}
			case []float64:
				for i, x := range m {
					in.env[v.KeyVar] = float64(i)
					in.env[v.ValVar] = x
					if err := in.exec(v.Body); err != nil {
						return err
					}
				}
			default:
				return fmt.Errorf("translator: ForEach over %T", over)
			}
		case If:
			cond, err := in.eval(v.Cond)
			if err != nil {
				return err
			}
			if truthy(cond) {
				if err := in.exec(v.Then); err != nil {
					return err
				}
			} else if err := in.exec(v.Else); err != nil {
				return err
			}
		default:
			return fmt.Errorf("translator: unknown statement %T", s)
		}
	}
	return nil
}

func (in *interp) eval(e Expr) (any, error) {
	switch v := e.(type) {
	case Const:
		return v.Value, nil
	case Var:
		val, ok := in.env[v.Name]
		if !ok {
			return nil, fmt.Errorf("translator: unbound variable %q", v.Name)
		}
		return val, nil
	case BinOp:
		l, err := in.eval(v.L)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(v.R)
		if err != nil {
			return nil, err
		}
		return binop(v.Op, l, r)
	case StateRead:
		return in.stateOp(v.Field, v.Op, v.Args)
	case MergeCall:
		fn, ok := in.prog.MergeFuncs[v.Func]
		if !ok {
			return nil, fmt.Errorf("translator: unknown merge function %q", v.Func)
		}
		parts := make([]any, 0, len(in.coll))
		for _, env := range in.coll {
			parts = append(parts, env.Vars[v.Arg.Name])
		}
		return fn(parts), nil
	default:
		return nil, fmt.Errorf("translator: unknown expression %T", e)
	}
}

// stateOp dispatches a state access to the local store instance through a
// per-store-type operation whitelist.
func (in *interp) stateOp(field, op string, args []Expr) (any, error) {
	st := in.ctx.Store()
	if st == nil {
		return nil, fmt.Errorf("translator: TE has no state but accesses %q", field)
	}
	vals := make([]any, len(args))
	for i, a := range args {
		v, err := in.eval(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	switch s := st.(type) {
	case *state.Matrix:
		switch op {
		case "set":
			s.Set(toI64(vals[0]), toI64(vals[1]), toF64(vals[2]))
			return nil, nil
		case "add":
			return s.Add(toI64(vals[0]), toI64(vals[1]), toF64(vals[2])), nil
		case "get":
			return s.Get(toI64(vals[0]), toI64(vals[1])), nil
		case "row":
			return s.RowVec(toI64(vals[0])), nil
		case "mulvec":
			m, ok := vals[0].(map[int64]float64)
			if !ok {
				return nil, fmt.Errorf("translator: mulvec needs a row vector, got %T", vals[0])
			}
			return s.MulVec(m), nil
		}
	case *state.KVMap:
		switch op {
		case "put":
			s.Put(hashValue(vals[0]), toBytes(vals[1]))
			return nil, nil
		case "get":
			v, ok := s.Get(hashValue(vals[0]))
			if !ok {
				return nil, nil
			}
			return v, nil
		case "delete":
			return s.Delete(hashValue(vals[0])), nil
		}
	case *state.Vector:
		switch op {
		case "set":
			s.Set(int(toI64(vals[0])), toF64(vals[1]))
			return nil, nil
		case "add":
			return s.Add(int(toI64(vals[0])), toF64(vals[1])), nil
		case "get":
			return s.Get(int(toI64(vals[0]))), nil
		case "snapshot":
			return s.Snapshot(), nil
		}
	}
	return nil, fmt.Errorf("translator: store %T has no operation %q", st, op)
}

func binop(op string, l, r any) (any, error) {
	lf, rf := toF64(l), toF64(r)
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return math.NaN(), nil
		}
		return lf / rf, nil
	case ">":
		return lf > rf, nil
	case "<":
		return lf < rf, nil
	case ">=":
		return lf >= rf, nil
	case "<=":
		return lf <= rf, nil
	case "==":
		return lf == rf, nil
	case "!=":
		return lf != rf, nil
	default:
		return nil, fmt.Errorf("translator: unknown operator %q", op)
	}
}

func truthy(v any) bool {
	switch x := v.(type) {
	case bool:
		return x
	case float64:
		return x != 0
	case int:
		return x != 0
	case int64:
		return x != 0
	case nil:
		return false
	default:
		return true
	}
}

func toF64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	default:
		return 0
	}
}

func toI64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	case uint64:
		return int64(x)
	default:
		return 0
	}
}

func toBytes(v any) []byte {
	switch x := v.(type) {
	case []byte:
		return x
	case string:
		return []byte(x)
	default:
		return []byte(fmt.Sprint(x))
	}
}

// hashValue maps an arbitrary key value to a dispatch key, keeping integral
// values stable so partitioned routing agrees with state partitioning.
func hashValue(v any) uint64 {
	switch x := v.(type) {
	case uint64:
		return x
	case int:
		return uint64(x)
	case int64:
		return uint64(x)
	case float64:
		if x == math.Trunc(x) {
			return uint64(int64(x))
		}
		return math.Float64bits(x)
	case string:
		h := fnv.New64a()
		h.Write([]byte(x))
		return h.Sum64()
	default:
		h := fnv.New64a()
		fmt.Fprint(h, x)
		return h.Sum64()
	}
}
