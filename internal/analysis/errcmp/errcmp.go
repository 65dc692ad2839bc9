// Package errcmp flags ==/!= comparisons (and switch cases) against
// sentinel error variables.
//
// # The invariant
//
// The engine wraps its sentinels before they cross layers:
// relation.ErrConflict surfaces as fmt.Errorf("%w: %s", ErrConflict,
// name), fixpoint.ErrIterationCap arrives wrapped with the fixpoint's
// name, and the wire layer adds its own context. A direct `err ==
// relation.ErrConflict` therefore compiles, passes a unit test that
// happens to see the unwrapped value, and silently never matches in
// production — retry-on-conflict loops that never retry. errors.Is is
// the only comparison that honors wrapping, so arcvet requires it for
// every identifier that looks like a sentinel: a package-level variable
// of type error whose name starts with "Err".
//
// Comparisons with nil are untouched, and a genuinely identity-based
// comparison can be suppressed with
//
//	//arcvet:ignore errcmp <why identity comparison is intended>
package errcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/arcvetutil"
)

var Analyzer = &arcvetutil.Analyzer{
	Name: "errcmp",
	Doc:  "flags ==/!= against sentinel errors where errors.Is is required because the engine wraps them",
	Run:  run,
}

func run(pass *arcvetutil.Pass) {
	sup := arcvetutil.NewSuppressor(pass)

	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if s := sentinelIn(pass, n.X, n.Y); s != nil {
				sup.Report(n.OpPos, "comparison of sentinel %s with %s; the engine wraps its sentinels — use errors.Is", s.Name(), n.Op)
			}
		case *ast.SwitchStmt:
			// switch err { case ErrX: } compares by ==, with the same
			// wrapped-sentinel blind spot.
			if n.Tag == nil || !isErrorExpr(pass, n.Tag) {
				return true
			}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if s := sentinelVar(pass, e); s != nil {
						sup.Report(e.Pos(), "switch case compares sentinel %s with ==; the engine wraps its sentinels — use errors.Is", s.Name())
					}
				}
			}
		}
		return true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, inspect)
	}
}

// sentinelIn returns the sentinel variable when one side is a sentinel
// and the other is an error-typed expression (not nil).
func sentinelIn(pass *arcvetutil.Pass, x, y ast.Expr) *types.Var {
	if s := sentinelVar(pass, x); s != nil && isErrorExpr(pass, y) {
		return s
	}
	if s := sentinelVar(pass, y); s != nil && isErrorExpr(pass, x) {
		return s
	}
	return nil
}

// sentinelVar resolves e to a package-level error variable named Err*.
func sentinelVar(pass *arcvetutil.Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// isErrorExpr reports whether e has static type error (nil does not).
func isErrorExpr(pass *arcvetutil.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	return isErrorType(tv.Type)
}

func isErrorType(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	// The error interface: exactly the Error() string method.
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == "Error" {
			return true
		}
	}
	return false
}
