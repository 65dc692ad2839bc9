package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alt"
	"repro/internal/value"
)

// varVals holds the attribute values of one bound range variable.
type varVals map[string]value.Value

// env is the evaluation environment of the conceptual evaluation
// strategy: the current assignment of range variables to tuples, with a
// bag-semantics weight (the product of tuple multiplicities on the path).
type env struct {
	vars   map[string]varVals
	weight int
}

func newEnv() *env { return &env{weight: 1} }

// extend returns a copy of e with var v bound to vals at weight e.weight*w.
func (e *env) extend(v string, vals varVals, w int) *env {
	nv := make(map[string]varVals, len(e.vars)+1)
	for k, x := range e.vars {
		nv[k] = x
	}
	nv[v] = vals
	return &env{vars: nv, weight: e.weight * w}
}

// lookup resolves var.attr; the second return is false when the variable
// is not bound (a correlation miss — a bug caught by linking, so callers
// turn it into an internal error).
func (e *env) lookup(v, attr string) (value.Value, bool, error) {
	vals, ok := e.vars[v]
	if !ok {
		return value.Null(), false, nil
	}
	x, ok := vals[attr]
	if !ok {
		return value.Null(), false, fmt.Errorf("variable %q has no attribute %q", v, attr)
	}
	return x, true, nil
}

// evalTerm evaluates a non-aggregate term in e. Aggregate terms are
// evaluated by the grouping stage with substitution (see evalTermAgg).
func (ev *evaluator) evalTerm(t alt.Term, e *env) (value.Value, error) {
	return ev.evalTermAgg(t, e, nil)
}

// evalTermAgg evaluates a term, substituting precomputed aggregate values
// from aggVals (keyed by node identity).
func (ev *evaluator) evalTermAgg(t alt.Term, e *env, aggVals map[*alt.Agg]value.Value) (value.Value, error) {
	switch x := t.(type) {
	case *alt.Const:
		return x.Val, nil
	case *alt.AttrRef:
		v, ok, err := e.lookup(x.Var, x.Attr)
		if err != nil {
			return value.Null(), err
		}
		if !ok {
			return value.Null(), fmt.Errorf("unbound variable %q at evaluation time", x.Var)
		}
		return v, nil
	case *alt.Agg:
		if aggVals != nil {
			if v, ok := aggVals[x]; ok {
				return v, nil
			}
		}
		return value.Null(), fmt.Errorf("aggregate %s evaluated outside a grouping stage", x)
	case *alt.Arith:
		l, err := ev.evalTermAgg(x.L, e, aggVals)
		if err != nil {
			return value.Null(), err
		}
		r, err := ev.evalTermAgg(x.R, e, aggVals)
		if err != nil {
			return value.Null(), err
		}
		var out value.Value
		var ok bool
		switch x.Op {
		case alt.OpAdd:
			out, ok = value.Add(l, r)
		case alt.OpSub:
			out, ok = value.Sub(l, r)
		case alt.OpMul:
			out, ok = value.Mul(l, r)
		case alt.OpDiv:
			out, ok = value.Div(l, r)
		}
		if !ok {
			return value.Null(), fmt.Errorf("type error in %s", x)
		}
		return out, nil
	}
	return value.Null(), fmt.Errorf("unknown term %T", t)
}

// assignKey builds a deterministic identity for a production row's head
// assignments, used to deduplicate nested quantifier productions.
func assignKey(m map[string]value.Value) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k].Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}
