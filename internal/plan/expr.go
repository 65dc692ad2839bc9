package plan

import (
	"fmt"
	"slices"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// scope is one query level's column-resolution context. parent chains to
// the enclosing query's scope, mirroring the reference evaluator's
// correlation frames (inner aliases shadow outer ones). Its rows hold
// its columns from off on, after the parent's row when linked (a probe's
// tested row, Outer): a reference resolves by depth, then maps there,
// and used, when set, records the columns of that row it reads.
type scope struct {
	schema []ColID
	parent *scope
	off    int
	linked bool
	used   *[]int
}

// errCorrelated marks a reference out of a scope whose rows do not hold
// the enclosing row: subscope then lowers again, with the tested row.
var errCorrelated = fmt.Errorf("%w: correlated reference", ErrNotPlannable)

// column resolves ref to its column in the rows compiled over s.
func (s *scope) column(ref *sql.ColRef) (int, error) {
	depth, col, err := s.resolve(ref)
	if err != nil {
		return 0, err
	}
	at := s
	for d := depth; d > 0; d-- {
		if !at.linked {
			return 0, fmt.Errorf("%w %s", errCorrelated, ref)
		}
		at = at.parent
	}
	col += at.off
	// Every row on the way down holds the column at col: its prefix is
	// its parent's row.
	for ; depth > 0; depth, s = depth-1, s.parent {
		if s.used != nil && !slices.Contains(*s.used, col) {
			*s.used = append(*s.used, col)
		}
	}
	return col, nil
}

// resolve finds the column a reference denotes, mirroring the reference
// evaluator's frame.lookup: qualified references bind to the innermost
// scope that knows the alias (and must find the column there);
// unqualified references bind to the innermost scope with exactly one
// column of that name (two candidates in one scope is ambiguous). depth 0
// is the current scope; depth > 0 is a correlated outer reference.
func (s *scope) resolve(ref *sql.ColRef) (depth, col int, err error) {
	for cur, d := s, 0; cur != nil; cur, d = cur.parent, d+1 {
		if ref.Table != "" {
			known := false
			for i, c := range cur.schema {
				if c.Rel != ref.Table {
					continue
				}
				known = true
				if c.Col == ref.Column {
					return d, i, nil
				}
			}
			if known {
				return 0, 0, notPlannable("table %q has no column %q", ref.Table, ref.Column)
			}
			continue
		}
		hit, hits := -1, 0
		for i, c := range cur.schema {
			if c.Col == ref.Column {
				hit = i
				hits++
			}
		}
		if hits > 1 {
			return 0, 0, notPlannable("ambiguous column %q", ref.Column)
		}
		if hits == 1 {
			return d, hit, nil
		}
	}
	return 0, 0, notPlannable("unknown column %s", ref)
}

// compileScalar compiles a scalar expression over the rows of the scope;
// subqueries are not plannable here.
func (s *scope) compileScalar(x sql.Expr) (exprFn, error) {
	switch n := x.(type) {
	case *sql.Lit:
		v := n.Val
		return func(relation.Tuple, *runCtx) value.Value { return v }, nil
	case *sql.Param:
		// Resolved from the bound arguments at execution time — the
		// plan-time leaf that makes re-execution re-plan-free.
		i := n.Index - 1
		return func(_ relation.Tuple, ctx *runCtx) value.Value { return ctx.param(i) }, nil
	case *sql.ColRef:
		col, err := s.column(n)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple, _ *runCtx) value.Value { return t[col] }, nil
	case *sql.BinE:
		l, err := s.compileScalar(n.L)
		if err != nil {
			return nil, err
		}
		r, err := s.compileScalar(n.R)
		if err != nil {
			return nil, err
		}
		return compileArith(n, l, r)
	}
	return nil, notPlannable("expression %T outside the scalar fragment", x)
}

// compileArith builds the arithmetic closure for a binary expression,
// with the reference evaluator's error message on type failure.
func compileArith(n *sql.BinE, l, r exprFn) (exprFn, error) {
	var op func(a, b value.Value) (value.Value, bool)
	switch n.Op {
	case '+':
		op = value.Add
	case '-':
		op = value.Sub
	case '*':
		op = value.Mul
	case '/':
		op = value.Div
	default:
		return nil, notPlannable("operator %q", string(n.Op))
	}
	return arith(op, n.String(), l, r), nil
}

// arith is the closure of one binary arithmetic operator: a type error
// fails the execution with "type error in str".
func arith(op func(a, b value.Value) (value.Value, bool), str string, l, r exprFn) exprFn {
	return func(t relation.Tuple, ctx *runCtx) value.Value {
		a := l(t, ctx)
		b := r(t, ctx)
		out, ok := op(a, b)
		if !ok {
			ctx.fail(fmt.Errorf("type error in %s", str))
		}
		return out
	}
}

// scalarCompiler compiles scalar leaf expressions of predicates; the
// per-row scope and the post-GROUP BY schema both implement it.
type scalarCompiler interface {
	compileScalar(x sql.Expr) (exprFn, error)
}

// compilePredWith compiles a boolean expression under 3VL with sc
// compiling the scalar leaves. Subquery predicates (EXISTS/IN) are only
// plannable as top-level WHERE conjuncts, which the SELECT compiler peels
// off before calling this — here they bail out.
func compilePredWith(sc scalarCompiler, x sql.Expr) (predFn, error) {
	switch n := x.(type) {
	case *sql.AndE:
		kids, err := compilePredsWith(sc, n.Kids)
		if err != nil {
			return nil, err
		}
		return andPreds(kids), nil
	case *sql.OrE:
		kids, err := compilePredsWith(sc, n.Kids)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple, ctx *runCtx) value.TV {
			tv := value.False
			for _, k := range kids {
				tv = tv.Or(k(t, ctx))
				if tv == value.True {
					return value.True
				}
			}
			return tv
		}, nil
	case *sql.NotE:
		kid, err := compilePredWith(sc, n.Kid)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple, ctx *runCtx) value.TV { return kid(t, ctx).Not() }, nil
	case *sql.Cmp:
		l, err := sc.compileScalar(n.L)
		if err != nil {
			return nil, err
		}
		r, err := sc.compileScalar(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(t relation.Tuple, ctx *runCtx) value.TV {
			return op.Apply(l(t, ctx), r(t, ctx))
		}, nil
	case *sql.IsNullE:
		arg, err := sc.compileScalar(n.Arg)
		if err != nil {
			return nil, err
		}
		neg := n.Negated
		return func(t relation.Tuple, ctx *runCtx) value.TV {
			return value.TVFromBool(arg(t, ctx).IsNull() != neg)
		}, nil
	case *sql.Lit:
		if n.Val.Kind() == value.KindBool {
			tv := value.TVFromBool(n.Val.AsBool())
			return func(relation.Tuple, *runCtx) value.TV { return tv }, nil
		}
		if n.Val.IsNull() {
			return func(relation.Tuple, *runCtx) value.TV { return value.Unknown }, nil
		}
	}
	return nil, notPlannable("predicate %T outside the compiled fragment", x)
}

func compilePredsWith(sc scalarCompiler, xs []sql.Expr) ([]predFn, error) {
	out := make([]predFn, len(xs))
	for i, x := range xs {
		p, err := compilePredWith(sc, x)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// andPreds folds conjunct predicates into one.
func andPreds(preds []predFn) predFn {
	if len(preds) == 1 {
		return preds[0]
	}
	return func(t relation.Tuple, ctx *runCtx) value.TV {
		tv := value.True
		for _, p := range preds {
			tv = tv.And(p(t, ctx))
			if tv == value.False {
				return value.False
			}
		}
		return tv
	}
}
