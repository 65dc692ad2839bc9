// Package hookreentry flags store re-entry from commit hooks and
// barrier callbacks.
//
// # The invariant
//
// relation.Store serializes commits under one mutex. A CommitHook
// registered with SetCommitHook runs inside Commit (and Apply) while
// that mutex is held — the write-ahead ordering the durable storage
// backend depends on. Store.Barrier likewise runs its callback under
// the commit lock (its doc: "f must not call back into the store"). If
// either callback calls a lock-taking Store method — Commit, Apply, or
// Barrier — the goroutine blocks on a mutex it already holds and every
// writer in the process deadlocks behind it. Nothing in the type system
// prevents this; it only surfaces as a wedged server under write load.
//
// The analyzer resolves the callback passed to SetCommitHook/Barrier (a
// function literal or a same-package function) and walks every function
// in the same package statically reachable from it; any reachable call
// to (*Store).Commit, (*Store).Apply, or (*Store).Barrier is reported
// at the offending call site. Calls that cross a package boundary
// cannot be followed — keep hook plumbing inside one package, or
// suppress a verified-safe case with
//
//	//arcvet:ignore hookreentry <why this cannot run under the commit lock>
package hookreentry

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/arcvetutil"
)

var Analyzer = &arcvetutil.Analyzer{
	Name: "hookreentry",
	Doc:  "flags Store.Commit/Apply/Barrier calls reachable from a commit hook or barrier callback, which self-deadlock under the commit lock",
	Run:  run,
}

// registrars are the Store methods whose function argument runs under
// the commit lock.
var registrars = map[string]bool{"SetCommitHook": true, "Barrier": true}

// reentrant are the Store methods that take the commit lock.
var reentrant = map[string]bool{"Commit": true, "Apply": true, "Barrier": true}

func run(pass *arcvetutil.Pass) {
	sup := arcvetutil.NewSuppressor(pass)
	decls := arcvetutil.FuncDecls(pass)

	inspect := func(n ast.Node) bool {
		reg, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := arcvetutil.Callee(pass.TypesInfo, reg)
		if fn == nil || !registrars[fn.Name()] {
			return true
		}
		if !arcvetutil.MethodOn(fn, "internal/relation", "Store", fn.Name()) {
			return true
		}
		if len(reg.Args) != 1 {
			return true
		}
		root, rootName := resolveCallback(pass, decls, reg.Args[0])
		if root == nil {
			return true
		}
		regPos := pass.Fset.Position(reg.Pos())
		w := &arcvetutil.Walker{
			Info:  pass.TypesInfo,
			Decls: decls,
			OnCall: func(call *ast.CallExpr, path []*types.Func) {
				callee := arcvetutil.Callee(pass.TypesInfo, call)
				if callee == nil || !reentrant[callee.Name()] {
					return
				}
				if !arcvetutil.MethodOn(callee, "internal/relation", "Store", callee.Name()) {
					return
				}
				sup.Report(call.Pos(),
					"(*Store).%s is reachable from the %s %s registered at %s:%d%s; it runs under the commit lock and would self-deadlock",
					callee.Name(), fn.Name(), rootName, regPos.Filename, regPos.Line, pathString(path))
			},
		}
		w.Walk(root)
		return true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, inspect)
	}
}

// resolveCallback turns the registered argument into a walkable body: a
// function literal's body, or the declaration of a same-package named
// function / method value.
func resolveCallback(pass *arcvetutil.Pass, decls map[*types.Func]*ast.FuncDecl, arg ast.Expr) (ast.Node, string) {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return arg.Body, "callback"
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[arg].(*types.Func); ok {
			if d, ok := decls[fn]; ok {
				return d.Body, fn.Name()
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[arg.Sel].(*types.Func); ok {
			if d, ok := decls[fn]; ok {
				return d.Body, fn.Name()
			}
		}
	}
	return nil, ""
}

func pathString(path []*types.Func) string {
	if len(path) == 0 {
		return ""
	}
	s := " (via"
	for _, f := range path {
		s += " " + f.Name()
	}
	return s + ")"
}
