package translator

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"

	"repro/internal/state"
)

// This file is the source-level front end of the translator: it parses an
// annotated Go file into the IR, playing the role Soot's Jimple front end
// plays for java2sdg. The accepted subset mirrors the paper's restrictions
// (§4.1): all state lives in annotated fields, loops and branches are
// local, and @Global results must be declared partial.
//
// Annotations are comments:
//
//	//sdg:state partitioned        (on a var declaration -> @Partitioned)
//	//sdg:state partial            (on a var declaration -> @Partial)
//	//sdg:partial                  (on an assignment -> @Partial variable)
//
// State accesses are method calls on the annotated variables; the method
// name selects the store operation, and the prefix "Global" marks @Global
// access (coOcc.GlobalMulvec(row) is @Global coOcc.multiply(row)). Merge
// functions (@Collection) are calls to names registered in the merges map:
// rec := sumVectors(userRec).
//
// Every top-level function becomes an entry method.
func ParseGoProgram(name, src string, merges map[string]func([]any) any) (*Program, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name+".go", src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("translator: parse: %w", err)
	}
	cmap := ast.NewCommentMap(fset, file, file.Comments)

	p := &Program{Name: name, MergeFuncs: merges}
	stateVars := map[string]bool{}

	// Pass 1: annotated state fields.
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		ann := annotationOf(gd.Doc)
		if !strings.HasPrefix(ann, "state") {
			continue
		}
		parts := strings.Fields(ann)
		if len(parts) != 2 {
			return nil, untranslatable("state annotation %q needs a kind: partitioned|partial", ann)
		}
		var fieldAnn FieldAnn
		switch parts[1] {
		case "partitioned":
			fieldAnn = AnnPartitioned
		case "partial":
			fieldAnn = AnnPartial
		default:
			return nil, untranslatable("unknown state kind %q", parts[1])
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			typ, err := storeTypeOf(vs.Type)
			if err != nil {
				return nil, err
			}
			for _, id := range vs.Names {
				p.Fields = append(p.Fields, Field{Name: id.Name, Type: typ, Ann: fieldAnn})
				stateVars[id.Name] = true
			}
		}
	}

	// Pass 2: methods.
	gp := &goParser{stateVars: stateVars, merges: merges, cmap: cmap}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		m := &Method{Name: fd.Name.Name}
		if fd.Type.Params != nil {
			for _, f := range fd.Type.Params.List {
				for _, id := range f.Names {
					m.Params = append(m.Params, id.Name)
				}
			}
		}
		body, err := gp.stmts(fd.Body.List)
		if err != nil {
			return nil, fmt.Errorf("translator: method %q: %w", m.Name, err)
		}
		m.Body = body
		p.Methods = append(p.Methods, m)
	}
	if len(p.Methods) == 0 {
		return nil, untranslatable("source defines no methods")
	}
	return p, nil
}

// annotationOf extracts the "sdg:" directive from a doc comment group.
func annotationOf(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
		if strings.HasPrefix(text, "sdg:") {
			return strings.TrimPrefix(text, "sdg:")
		}
	}
	return ""
}

// storeTypeOf maps source type names to store types.
func storeTypeOf(t ast.Expr) (state.StoreType, error) {
	id, ok := t.(*ast.Ident)
	if !ok {
		return state.TypeInvalid, untranslatable("state type must be a plain identifier")
	}
	switch id.Name {
	case "Matrix":
		return state.TypeMatrix, nil
	case "KVMap", "Dictionary":
		return state.TypeKVMap, nil
	case "Vector":
		return state.TypeVector, nil
	default:
		return state.TypeInvalid, untranslatable("unknown state type %q", id.Name)
	}
}

type goParser struct {
	stateVars map[string]bool
	merges    map[string]func([]any) any
	cmap      ast.CommentMap
}

func (g *goParser) stmts(list []ast.Stmt) ([]Stmt, error) {
	var out []Stmt
	for _, s := range list {
		converted, err := g.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, converted...)
	}
	return out, nil
}

func (g *goParser) stmt(s ast.Stmt) ([]Stmt, error) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
			return nil, untranslatable("only single assignments are supported")
		}
		id, ok := v.Lhs[0].(*ast.Ident)
		if !ok {
			return nil, untranslatable("assignment target must be a variable")
		}
		expr, err := g.expr(v.Rhs[0])
		if err != nil {
			return nil, err
		}
		partial := g.hasPartialMark(s) || isGlobalExpr(expr)
		return []Stmt{Assign{Var: id.Name, Expr: expr, Partial: partial}}, nil

	case *ast.ExprStmt:
		call, ok := v.X.(*ast.CallExpr)
		if !ok {
			return nil, untranslatable("bare expressions must be state calls")
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, untranslatable("bare calls must target state fields")
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || !g.stateVars[recv.Name] {
			return nil, untranslatable("call receiver %v is not a state field", sel.X)
		}
		op, _ := splitGlobalOp(sel.Sel.Name)
		args, err := g.exprs(call.Args)
		if err != nil {
			return nil, err
		}
		return []Stmt{StateUpdate{Field: recv.Name, Op: op, Args: args}}, nil

	case *ast.RangeStmt:
		key, ok1 := v.Key.(*ast.Ident)
		val, ok2 := v.Value.(*ast.Ident)
		if !ok1 || !ok2 {
			return nil, untranslatable("range needs named key and value variables")
		}
		over, err := g.expr(v.X)
		if err != nil {
			return nil, err
		}
		body, err := g.stmts(v.Body.List)
		if err != nil {
			return nil, err
		}
		return []Stmt{ForEach{KeyVar: key.Name, ValVar: val.Name, Over: over, Body: body}}, nil

	case *ast.IfStmt:
		if v.Init != nil {
			return nil, untranslatable("if-with-init is not supported")
		}
		cond, err := g.expr(v.Cond)
		if err != nil {
			return nil, err
		}
		then, err := g.stmts(v.Body.List)
		if err != nil {
			return nil, err
		}
		var els []Stmt
		switch e := v.Else.(type) {
		case nil:
		case *ast.BlockStmt:
			els, err = g.stmts(e.List)
			if err != nil {
				return nil, err
			}
		case *ast.IfStmt:
			els, err = g.stmt(e)
			if err != nil {
				return nil, err
			}
		}
		return []Stmt{If{Cond: cond, Then: then, Else: els}}, nil

	case *ast.ReturnStmt:
		if len(v.Results) != 1 {
			return nil, untranslatable("return must carry exactly one value")
		}
		expr, err := g.expr(v.Results[0])
		if err != nil {
			return nil, err
		}
		return []Stmt{Return{Expr: expr}}, nil

	default:
		return nil, untranslatable("unsupported statement %T", s)
	}
}

// hasPartialMark reports whether the statement carries //sdg:partial.
func (g *goParser) hasPartialMark(s ast.Stmt) bool {
	for _, cg := range g.cmap[s] {
		if annotationOf(cg) == "partial" {
			return true
		}
	}
	return false
}

func (g *goParser) exprs(list []ast.Expr) ([]Expr, error) {
	out := make([]Expr, len(list))
	for i, e := range list {
		conv, err := g.expr(e)
		if err != nil {
			return nil, err
		}
		out[i] = conv
	}
	return out, nil
}

func (g *goParser) expr(e ast.Expr) (Expr, error) {
	switch v := e.(type) {
	case *ast.Ident:
		switch v.Name {
		case "true":
			return Const{Value: true}, nil
		case "false":
			return Const{Value: false}, nil
		}
		return Var{Name: v.Name}, nil
	case *ast.BasicLit:
		switch v.Kind {
		case token.INT:
			n, err := strconv.ParseInt(v.Value, 0, 64)
			if err != nil {
				return nil, untranslatable("bad int literal %q", v.Value)
			}
			return Const{Value: float64(n)}, nil
		case token.FLOAT:
			f, err := strconv.ParseFloat(v.Value, 64)
			if err != nil {
				return nil, untranslatable("bad float literal %q", v.Value)
			}
			return Const{Value: f}, nil
		case token.STRING:
			s, err := strconv.Unquote(v.Value)
			if err != nil {
				return nil, untranslatable("bad string literal %q", v.Value)
			}
			return Const{Value: s}, nil
		default:
			return nil, untranslatable("unsupported literal %q", v.Value)
		}
	case *ast.ParenExpr:
		return g.expr(v.X)
	case *ast.BinaryExpr:
		l, err := g.expr(v.X)
		if err != nil {
			return nil, err
		}
		r, err := g.expr(v.Y)
		if err != nil {
			return nil, err
		}
		return BinOp{Op: v.Op.String(), L: l, R: r}, nil
	case *ast.CallExpr:
		switch fun := v.Fun.(type) {
		case *ast.SelectorExpr:
			recv, ok := fun.X.(*ast.Ident)
			if !ok || !g.stateVars[recv.Name] {
				return nil, untranslatable("call receiver %v is not a state field", fun.X)
			}
			op, global := splitGlobalOp(fun.Sel.Name)
			args, err := g.exprs(v.Args)
			if err != nil {
				return nil, err
			}
			return StateRead{Field: recv.Name, Op: op, Args: args, Global: global}, nil
		case *ast.Ident:
			// A call to a registered merge function is a @Collection merge.
			if _, ok := g.merges[fun.Name]; ok {
				if len(v.Args) != 1 {
					return nil, untranslatable("merge %q takes one partial variable", fun.Name)
				}
				arg, ok := v.Args[0].(*ast.Ident)
				if !ok {
					return nil, untranslatable("merge %q argument must be a variable", fun.Name)
				}
				return MergeCall{Func: fun.Name, Arg: Var{Name: arg.Name}}, nil
			}
			return nil, untranslatable("unknown function %q (not a registered merge)", fun.Name)
		default:
			return nil, untranslatable("unsupported call %T", v.Fun)
		}
	default:
		return nil, untranslatable("unsupported expression %T", e)
	}
}

// splitGlobalOp maps a source method name to (store op, global?): the
// "Global" prefix marks @Global access, and the remainder lower-cases to
// the store operation name (GlobalMulvec -> mulvec, Set -> set).
func splitGlobalOp(name string) (string, bool) {
	if strings.HasPrefix(name, "Global") && len(name) > len("Global") {
		return strings.ToLower(name[len("Global"):]), true
	}
	return strings.ToLower(name), false
}

// isGlobalExpr reports whether the expression contains a @Global read, so
// the parser can auto-mark assigned variables partial (the explicit
// //sdg:partial comment remains supported and is validated downstream).
func isGlobalExpr(e Expr) bool {
	return containsGlobalRead(e)
}
