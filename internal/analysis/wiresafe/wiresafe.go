// Package wiresafe is the compile-time half of the wire-safety gate.
//
// flat.CheckWireSafe rejects chans, funcs, unsafe.Pointers, and unexported
// struct fields at the *sender at runtime* — gob would drop or mangle them
// silently, which in a replicated-state system becomes divergence that
// surfaces long after the bug. This analyzer runs the same structural walk
// over the static type of every wire.Register argument, so an unsendable
// type fails CI instead of panicking the first worker that emits it. The
// runtime walk stays as defense-in-depth for interface-typed fields, whose
// dynamic contents no static check can see.
//
// It also flags direct gob.Register calls outside repro/internal/wire/flat
// (the one package that encodes with gob, behind wire.Register): they
// register a type for the wire while skipping CheckWireSafe entirely.
package wiresafe

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis/anz"
)

var Analyzer = &anz.Analyzer{
	Name: "wiresafe",
	Doc: "report chans, funcs, unsafe.Pointers, and unexported fields reachable from " +
		"wire.Register'd types, and gob.Register calls that bypass the wire-safety gate",
	Run: run,
}

const (
	wirePkg = "repro/internal/wire"
	flatPkg = wirePkg + "/flat"
)

func run(pass *anz.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			obj := calleeObj(pass.TypesInfo, call.Fun)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() != "Register" || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case wirePkg, flatPkg:
				tv, ok := pass.TypesInfo.Types[call.Args[0]]
				if !ok {
					return true
				}
				w := &walker{seen: map[types.Type]bool{}}
				w.check(tv.Type, types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
				for _, p := range w.problems {
					pass.Reportf(call.Args[0].Pos(), "wire-registered type is not wire-safe: %s", p)
				}
			case "encoding/gob":
				if pass.Pkg.Path() != flatPkg {
					pass.Reportf(call.Pos(), "direct gob.Register bypasses the wire-safety gate; use wire.Register so CheckWireSafe applies")
				}
			}
			return true
		})
	}
	return nil
}

// walker mirrors flat.checkType over go/types instead of reflect.
type walker struct {
	seen     map[types.Type]bool
	problems []string
}

func (w *walker) check(t types.Type, path string) {
	if w.seen[t] {
		return
	}
	w.seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Chan:
		w.problems = append(w.problems, fmt.Sprintf("%s is a chan (%s)", path, t))
	case *types.Signature:
		w.problems = append(w.problems, fmt.Sprintf("%s is a func (%s)", path, t))
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			w.problems = append(w.problems, fmt.Sprintf("%s is an unsafe.Pointer", path))
		}
	case *types.Interface:
		// Dynamic contents are checked per value by the runtime walk.
	case *types.Pointer:
		w.check(u.Elem(), path)
	case *types.Slice:
		w.check(u.Elem(), path+"[]")
	case *types.Array:
		w.check(u.Elem(), path+"[]")
	case *types.Map:
		w.check(u.Key(), path+" key")
		w.check(u.Elem(), path+" value")
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				w.problems = append(w.problems, fmt.Sprintf("%s has unexported field %q (gob drops it silently)", path, f.Name()))
				continue
			}
			w.check(f.Type(), path+"."+f.Name())
		}
	}
}

func calleeObj(info *types.Info, fun ast.Expr) types.Object {
	switch fun := fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.ParenExpr:
		return calleeObj(info, fun.X)
	}
	return nil
}
