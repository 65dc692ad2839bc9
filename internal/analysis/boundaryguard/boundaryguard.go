// Package boundaryguard flags unguarded untrusted-input entry points at
// the engine and server boundary.
//
// # The invariant
//
// Every byte a client sends eventually flows into a parser, a planner,
// or an operator tree. Those layers return errors for the malformed
// inputs they anticipate; for the ones they don't — a grammar bug, an
// out-of-range index on a hostile frame — the engine's contract is that
// a deferred recover at the API boundary converts the panic into
// *engine.PanicError (or the server's per-connection recover logs it),
// so hostile traffic costs one statement or one connection, never the
// process. A single missed guard re-opens the
// crash-the-server-with-one-query hole the PR-5 hardening closed.
//
// The analyzer checks the two boundary packages (internal/engine,
// internal/server). For every exported function or method it walks the
// same-package static call graph; the walk is pruned at any function
// that installs a recover guard (defer of a recover-calling literal, or
// of a same-package function like recoverTo whose body calls recover).
// If the walk reaches a dangerous call — parsing (sql/arc/datalog/trc
// Parse*), plan compilation or execution (plan.Compile/Stream*/
// Execute*), evaluator entry (sqleval/eval/datalog Eval*), frame
// handling (server ReadFrame / handle*), or the engine Rows pull or
// push (an invocation of the `next` iterator field or the `seq` stream
// field) — the entry point is
// reported: a panic raised inside that call would escape the process
// boundary unguarded.
//
// An entry point that is genuinely panic-free by construction can be
// suppressed with
//
//	//arcvet:ignore boundaryguard <why no untrusted input reaches this path>
package boundaryguard

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/arcvetutil"
)

var Analyzer = &arcvetutil.Analyzer{
	Name: "boundaryguard",
	Doc:  "flags exported engine/server entry points that reach plan execution or frame decoding without a deferred recover-to-PanicError guard",
	Run:  run,
}

// boundaryPkgs are the packages whose exported surface faces untrusted
// input.
var boundaryPkgs = []string{"internal/engine", "internal/server"}

// dangerSpec matches calls that can panic on hostile input: functions
// with the given name (or prefix) in a package matching the suffix.
type dangerSpec struct {
	pkg    string
	prefix string
	exact  bool
}

var dangers = []dangerSpec{
	{pkg: "internal/sql", prefix: "Parse"},
	{pkg: "internal/arc", prefix: "Parse"},
	{pkg: "internal/datalog", prefix: "Parse"},
	{pkg: "internal/datalog", prefix: "Eval"},
	{pkg: "internal/trc", prefix: "Parse"},
	{pkg: "internal/plan", prefix: "Compile"},
	{pkg: "internal/plan", prefix: "Stream"},
	{pkg: "internal/plan", prefix: "Execute"},
	{pkg: "internal/sqleval", prefix: "Eval"},
	{pkg: "internal/eval", prefix: "Eval"},
	{pkg: "internal/server", prefix: "handle"},
	{pkg: "internal/server", prefix: "ReadFrame", exact: true},
}

func run(pass *arcvetutil.Pass) {
	if !arcvetutil.PkgIs(pass.Pkg, boundaryPkgs...) {
		return
	}
	sup := arcvetutil.NewSuppressor(pass)
	decls := arcvetutil.FuncDecls(pass)

	guarded := func(fn *types.Func, decl *ast.FuncDecl) bool {
		return arcvetutil.HasRecoverDefer(pass.TypesInfo, decls, decl.Body)
	}

	for _, fd := range arcvetutil.FuncBodies(pass) {
		if !fd.Name.IsExported() {
			continue
		}
		// Test files declare exported helpers and Test/Benchmark functions
		// that legitimately call parsers bare; the contract covers the
		// production surface only.
		if file := pass.Fset.Position(fd.Pos()).Filename; strings.HasSuffix(file, "_test.go") {
			continue
		}
		if !receiverExported(fd) {
			continue // not reachable from outside the package
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok || guarded(fn, fd) {
			continue
		}
		var firstDanger string
		var firstPath []*types.Func
		w := &arcvetutil.Walker{
			Info:   pass.TypesInfo,
			Decls:  decls,
			StopAt: guarded,
			OnCall: func(call *ast.CallExpr, path []*types.Func) {
				if firstDanger != "" {
					return
				}
				if d := dangerCall(pass, call); d != "" {
					firstDanger = d
					firstPath = path
				}
			},
		}
		w.Walk(fd.Body)
		if firstDanger != "" {
			sup.Report(fd.Name.Pos(),
				"exported %s entry point %s reaches %s%s with no deferred recover guard on the way; a panic on hostile input would kill the process — defer recoverTo(&err, ...) at the boundary",
				pass.Pkg.Name(), fn.Name(), firstDanger, pathString(firstPath))
		}
	}
}

// receiverExported reports whether fd is a plain function or a method
// on an exported (base) type — i.e. callable from outside the package.
func receiverExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// dangerCall classifies a call as dangerous, returning a description or
// "".
func dangerCall(pass *arcvetutil.Pass, call *ast.CallExpr) string {
	fn := arcvetutil.Callee(pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil {
		for _, d := range dangers {
			if !arcvetutil.PkgIs(fn.Pkg(), d.pkg) {
				continue
			}
			if d.exact && fn.Name() == d.prefix ||
				!d.exact && strings.HasPrefix(fn.Name(), d.prefix) {
				return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name())
			}
		}
		return ""
	}
	// The engine Rows pull and push: invoking the `next` iterator field
	// resumes the operator coroutine, and invoking the `seq` stream field
	// runs the operator tree in place; a hostile-input panic surfaces in
	// either.
	if arcvetutil.PkgIs(pass.Pkg, "internal/engine") {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		var what string
		switch sel.Sel.Name {
		case "next":
			what = "the Rows iterator pull (next field)"
		case "seq":
			what = "the Rows stream push (seq field)"
		default:
			return ""
		}
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if _, isSig := s.Type().Underlying().(*types.Signature); isSig {
				return what
			}
		}
	}
	return ""
}

func pathString(path []*types.Func) string {
	if len(path) == 0 {
		return ""
	}
	names := make([]string, len(path))
	for i, f := range path {
		names[i] = f.Name()
	}
	return " (via " + strings.Join(names, " → ") + ")"
}
