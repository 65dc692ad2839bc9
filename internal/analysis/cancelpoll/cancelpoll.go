// Package cancelpoll flags row-pull and fixpoint-round loops with no
// cancellation poll.
//
// # The invariant
//
// A prepared statement's context must be able to stop it: the engine's
// contract (PR 4) is that operator pull loops poll runCtx.poll (which
// rate-limits the real ctx.Err check to every 64 rows) and the fixpoint
// round loop polls Options.Check before every round. A loop that pulls
// rows or runs rounds without a poll site turns a cancelled query — or a
// hostile unbounded recursion — into a goroutine the server cannot
// reclaim until the loop happens to finish, defeating graceful shutdown
// and per-query timeouts.
//
// Mechanically, in internal/plan and internal/eval: every `for … range`
// over an exec.Seq, and every loop whose header reads a
// relation.NumberedRun (γ folding a numbered scan run by run, stretch by
// stretch), must call .poll() in its body or in an enclosing loop's body (eval's compiled scopes poll evaluator.poll per tuple they
// extend, so the build loop of a grouped lookup and the inner loop of an
// existence filter are covered by the enumeration they run on; the γ
// loop over exec.GroupAggregate's groups is the range this rule sees). In
// internal/fixpoint: every loop that invokes a rule or term callback (a
// func-typed field named Eval, Step, or Base) must call .Check in its
// body or an enclosing loop's body. internal/exec's operators are
// intentionally out of scope: they are lazy sequences driven by the
// plan layer, whose guard loop carries the poll for the whole pipeline
// (and the engine Rows cursor polls once per pulled row at the API
// boundary).
//
// A loop that is provably bounded and tiny can be suppressed with
//
//	//arcvet:ignore cancelpoll <why this loop is O(small) and bounded>
package cancelpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/arcvetutil"
)

var Analyzer = &arcvetutil.Analyzer{
	Name: "cancelpoll",
	Doc:  "flags row-pull and numbered-run loops (plan, eval) and fixpoint round loops that never poll runCtx.poll / evaluator.poll / Options.Check for cancellation",
	Run:  run,
}

func run(pass *arcvetutil.Pass) {
	isPlan := arcvetutil.PkgIs(pass.Pkg, "internal/plan") || arcvetutil.PkgIs(pass.Pkg, "internal/eval")
	isFixpoint := arcvetutil.PkgIs(pass.Pkg, "internal/fixpoint")
	if !isPlan && !isFixpoint {
		return
	}
	sup := arcvetutil.NewSuppressor(pass)

	for _, fd := range arcvetutil.FuncBodies(pass) {
		if file := pass.Fset.Position(fd.Pos()).Filename; strings.HasSuffix(file, "_test.go") {
			continue
		}
		c := &checker{pass: pass, sup: sup, isPlan: isPlan, isFixpoint: isFixpoint}
		c.walk(fd.Body, false)
	}
}

type checker struct {
	pass       *arcvetutil.Pass
	sup        *arcvetutil.Suppressor
	isPlan     bool
	isFixpoint bool
}

// walk descends fn bodies tracking whether any enclosing loop already
// polls; each loop is checked where it appears.
func (c *checker) walk(n ast.Node, polledAbove bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			c.loop(n, n.Body, polledAbove)
			return false
		case *ast.RangeStmt:
			c.loop(n, n.Body, polledAbove)
			return false
		}
		return true
	})
}

// loop checks one loop and recurses into its body.
func (c *checker) loop(stmt ast.Node, body *ast.BlockStmt, polledAbove bool) {
	polled := polledAbove || c.bodyPolls(body)
	if !polled {
		if rng, ok := stmt.(*ast.RangeStmt); ok && c.isPlan && c.isSeqRange(rng) {
			c.sup.Report(stmt.Pos(), "row-pull loop over an exec.Seq never calls poll; a cancelled context cannot stop this stream — poll in the loop body")
		}
		if c.isPlan && c.isRunLoop(stmt) {
			c.sup.Report(stmt.Pos(), "loop over a relation.Numbering run never calls poll; a cancelled context cannot stop this fold — poll in the loop body")
		}
		if c.isFixpoint && c.invokesRoundCallback(body) {
			c.sup.Report(stmt.Pos(), "fixpoint round loop never polls Options.Check; cancellation cannot stop the iteration — check before each round")
		}
	}
	c.walk(body, polled)
}

// bodyPolls reports whether body contains a poll site: a call to a
// method named poll, or an invocation of a field named Check. Calls
// inside nested function literals count — the emit callbacks close over
// the same execution.
func (c *checker) bodyPolls(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "poll" || sel.Sel.Name == "Check" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSeqRange reports whether rng ranges over a value of the exec.Seq
// iterator type.
func (c *checker) isSeqRange(rng *ast.RangeStmt) bool {
	t := c.pass.TypesInfo.TypeOf(rng.X)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Seq" && arcvetutil.PkgIs(named.Obj().Pkg(), "internal/exec")
}

// isRunLoop reports whether the header of a for or range loop — its
// init, condition and post statements, or what it ranges over — reads a
// relation.NumberedRun: a loop over a numbering's runs or over the slots
// of one.
func (c *checker) isRunLoop(stmt ast.Node) bool {
	var header []ast.Node
	switch s := stmt.(type) {
	case *ast.ForStmt:
		header = []ast.Node{s.Init, s.Cond, s.Post}
	case *ast.RangeStmt:
		header = []ast.Node{s.X}
	}
	found := false
	for _, h := range header {
		if h == nil || found {
			continue
		}
		ast.Inspect(h, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !found && isNumberedRun(c.pass.TypesInfo.TypeOf(e)) {
				found = true
			}
			return !found
		})
	}
	return found
}

// isNumberedRun reports whether t is relation.NumberedRun, or a pointer
// to, array or slice of it.
func isNumberedRun(t types.Type) bool {
	for t != nil {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name() == "NumberedRun" && arcvetutil.PkgIs(u.Obj().Pkg(), "internal/relation")
		default:
			return false
		}
	}
	return false
}

// invokesRoundCallback reports whether body directly invokes a
// func-typed field named Eval, Step, or Base — a rule or recursive-term
// evaluation, i.e. one round's worth of work.
func (c *checker) invokesRoundCallback(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		// Do not attribute a nested loop's callbacks to this loop; the
		// nested loop is checked on its own.
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n != ast.Node(body) {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Eval", "Step", "Base":
		default:
			return true
		}
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if _, isSig := s.Type().Underlying().(*types.Signature); isSig {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
