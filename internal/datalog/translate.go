package datalog

import (
	"fmt"

	"repro/internal/alt"
	"repro/internal/value"
)

// ToARC translates the definition of one predicate into an ARC collection
// (Section 2.9: multiple rules with the same head become one definition
// with a disjunction; recursion stays a reference to the head relation;
// Soufflé aggregates become the FOI pattern of Fig 5c — a correlated
// nested collection with γ∅). It is also how programs execute: Lower
// translates every derived predicate and internal/eval runs the result.
//
// schemas supplies named attributes for every predicate used (the named
// perspective needs them); IDB predicates default to x1..xk.
func ToARC(p *Program, schemas map[string][]string, pred string) (*alt.Collection, error) {
	var rules []*Rule
	tr := &arcTranslator{schemas: schemas, preds: map[string]bool{}}
	for _, r := range p.Rules {
		tr.preds[r.Head.Pred] = true
		walkAtoms(r.Body, false, func(a Atom, _ bool) { tr.preds[a.Pred] = true })
		if r.Head.Pred != pred {
			continue
		}
		if len(rules) > 0 && len(r.Head.Args) != len(rules[0].Head.Args) {
			return nil, fmt.Errorf("datalog: predicate %s used with arities %d and %d", pred, len(rules[0].Head.Args), len(r.Head.Args))
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("datalog: no rules define %q", pred)
	}
	attrs := schemaFor(schemas, pred, len(rules[0].Head.Args))
	if len(attrs) != len(rules[0].Head.Args) {
		return nil, fmt.Errorf("datalog: %s has %d attributes, defined with %d arguments", pred, len(attrs), len(rules[0].Head.Args))
	}
	var branches []alt.Formula
	for _, r := range rules {
		br, err := tr.rule(r, pred, attrs)
		if err != nil {
			return nil, err
		}
		branches = append(branches, br)
	}
	var body alt.Formula
	if len(branches) == 1 {
		body = branches[0]
	} else {
		body = alt.OrF(branches...)
	}
	return alt.Col(pred, attrs, body), nil
}

func schemaFor(schemas map[string][]string, pred string, arity int) []string {
	if s, ok := schemas[pred]; ok {
		return s
	}
	out := make([]string, arity)
	for i := range out {
		out[i] = fmt.Sprintf("x%d", i+1)
	}
	return out
}

type arcTranslator struct {
	schemas map[string][]string
	// preds holds every predicate name of the program. Range variables
	// and nested collection heads must avoid them: ARC resolves a name to
	// the innermost range variable or head before any relation.
	preds map[string]bool
	fresh int
}

func (tr *arcTranslator) gensym(prefix string) string {
	for {
		tr.fresh++
		name := fmt.Sprintf("%s%d", prefix, tr.fresh)
		if !tr.preds[name] {
			return name
		}
	}
}

// siteMap tracks, for each grounded Datalog variable, the ARC term that
// computes it: the attribute reference of its first positive occurrence,
// the right-hand side of an assignment-form equality, or an aggregate's
// result. Uses clone the term, so the ALT stays a tree.
type siteMap map[string]alt.Term

// scoped returns a copy for a nested scope: what the scope grounds
// locally must not leak out ("you cannot export information from within
// the body of an aggregate"), while outer sites stay visible as
// correlated references.
func (s siteMap) scoped() siteMap {
	inner := make(siteMap, len(s))
	for k, v := range s {
		inner[k] = v
	}
	return inner
}

func (tr *arcTranslator) rule(r *Rule, pred string, headAttrs []string) (alt.Formula, error) {
	sites := siteMap{}
	bindings, conjs, err := tr.body(r.Body, sites)
	if err != nil {
		return nil, err
	}
	for i, a := range r.Head.Args {
		headRef := alt.Ref(pred, headAttrs[i])
		switch x := a.(type) {
		case Var:
			site, ok := sites[x.Name]
			if !ok {
				return nil, fmt.Errorf("datalog: head variable %q of %s not grounded in body", x.Name, pred)
			}
			conjs = append(conjs, alt.Eq(headRef, alt.CloneTerm(site)))
		case Const:
			conjs = append(conjs, alt.Eq(headRef, alt.CVal(x.Val)))
		case Wildcard:
			return nil, fmt.Errorf("datalog: wildcard in head of %s", pred)
		}
	}
	if len(bindings) == 0 {
		// A fact, or a body of comparisons only: nothing to range over,
		// the head assignments stand on their own.
		return alt.AndF(conjs...), nil
	}
	return alt.Exists(bindings, alt.AndF(conjs...)), nil
}

// body translates a rule or aggregate body into the bindings and
// conjuncts of one ARC scope, extending sites with what the body
// grounds. Positive atoms ground first; then assignment-form equalities
// ("y = x*2+1" with y not yet grounded) and aggregate results, an
// aggregate only once no equality can make progress, so every outer
// variable it can correlate on already has a site; what is left filters.
func (tr *arcTranslator) body(lits []Literal, sites siteMap) ([]*alt.Binding, []alt.Formula, error) {
	var bindings []*alt.Binding
	var conjs []alt.Formula
	var pending []Literal
	for _, l := range lits {
		pa, ok := l.(PosAtom)
		if !ok {
			pending = append(pending, l)
			continue
		}
		b, preds, err := tr.atomBinding(pa.Atom, sites, true)
		if err != nil {
			return nil, nil, err
		}
		bindings = append(bindings, b)
		conjs = append(conjs, preds...)
	}
	for progress := true; progress; {
		progress = false
		var rest []Literal
		for _, l := range pending {
			if c, ok := l.(Cmp); ok && c.Op == value.Eq && tr.assign(c, sites) {
				progress = true
				continue
			}
			rest = append(rest, l)
		}
		pending = rest
		if progress {
			continue
		}
		for i, l := range pending {
			agg, ok := l.(AggLiteral)
			if !ok {
				continue
			}
			b, res, err := tr.aggregate(agg, sites)
			if err != nil {
				return nil, nil, err
			}
			bindings = append(bindings, b)
			if agg.Func == "min" || agg.Func == "max" || agg.Func == "mean" {
				// Over an empty body these derive nothing; ARC's γ∅
				// yields one group with a NULL result instead.
				conjs = append(conjs, alt.NotNull(alt.CloneTerm(res)))
			}
			if site, grounded := sites[agg.Result]; grounded {
				conjs = append(conjs, alt.Eq(alt.CloneTerm(site), alt.CloneTerm(res)))
			} else {
				sites[agg.Result] = res
			}
			pending = append(pending[:i:i], pending[i+1:]...)
			progress = true
			break
		}
	}
	for _, l := range pending {
		switch x := l.(type) {
		case NegAtom:
			b, preds, err := tr.atomBinding(x.Atom, sites, false)
			if err != nil {
				return nil, nil, err
			}
			conjs = append(conjs, alt.NotF(alt.Exists([]*alt.Binding{b}, alt.AndF(preds...))))
		case Cmp:
			l2, err := tr.expr(x.L, sites)
			if err != nil {
				return nil, nil, err
			}
			r2, err := tr.expr(x.R, sites)
			if err != nil {
				return nil, nil, err
			}
			conjs = append(conjs, &alt.Pred{Left: l2, Op: x.Op, Right: r2})
		default:
			return nil, nil, fmt.Errorf("datalog: cannot translate literal %T", l)
		}
	}
	return bindings, conjs, nil
}

// assign treats "v = expr" (either way round) as the definition of v when
// v has no site yet and expr is fully grounded.
func (tr *arcTranslator) assign(c Cmp, sites siteMap) bool {
	for _, side := range [2][2]Expr{{c.L, c.R}, {c.R, c.L}} {
		t, ok := side[0].(TermExpr)
		if !ok {
			continue
		}
		v, ok := t.T.(Var)
		if !ok {
			continue
		}
		if _, grounded := sites[v.Name]; grounded {
			continue
		}
		def, err := tr.expr(side[1], sites)
		if err != nil {
			continue // not grounded yet; a later pass may get there
		}
		sites[v.Name] = def
		return true
	}
	return false
}

// atomBinding introduces a range variable for one atom and the equality
// predicates tying its arguments to constants and grounded variables. A
// positive atom (grounds) gives the variables it meets first their site;
// a negated atom grounds nothing, so every variable must have one.
func (tr *arcTranslator) atomBinding(a Atom, sites siteMap, grounds bool) (*alt.Binding, []alt.Formula, error) {
	attrs := schemaFor(tr.schemas, a.Pred, len(a.Args))
	if len(attrs) != len(a.Args) {
		return nil, nil, fmt.Errorf("datalog: %s has %d attributes, used with %d arguments", a.Pred, len(attrs), len(a.Args))
	}
	v := tr.gensym("t")
	var preds []alt.Formula
	for i, arg := range a.Args {
		ref := alt.Ref(v, attrs[i])
		switch x := arg.(type) {
		case Wildcard:
		case Const:
			preds = append(preds, alt.Eq(ref, alt.CVal(x.Val)))
		case Var:
			if site, ok := sites[x.Name]; ok {
				preds = append(preds, alt.Eq(ref, alt.CloneTerm(site)))
			} else if grounds {
				sites[x.Name] = ref
			} else {
				return nil, nil, fmt.Errorf("datalog: variable %q of !%s not grounded by a positive atom", x.Name, a)
			}
		}
	}
	return alt.Bind(v, a.Pred), preds, nil
}

// aggregate translates "res = sum e : {body}" into the FOI pattern: a
// correlated nested collection with γ∅ (Fig 5c / query (7)). It returns
// the binding ranging over that collection and the reference to its
// single result attribute.
func (tr *arcTranslator) aggregate(a AggLiteral, sites siteMap) (*alt.Binding, *alt.AttrRef, error) {
	var fn alt.AggFunc
	switch a.Func {
	case "sum":
		fn = alt.AggSum
	case "count":
		fn = alt.AggCount
	case "min":
		fn = alt.AggMin
	case "max":
		fn = alt.AggMax
	case "mean":
		fn = alt.AggAvg
	default:
		return nil, nil, fmt.Errorf("datalog: unknown aggregate %q", a.Func)
	}
	inner := sites.scoped()
	bindings, conjs, err := tr.body(a.Body, inner)
	if err != nil {
		return nil, nil, err
	}
	if len(bindings) == 0 {
		return nil, nil, fmt.Errorf("datalog: the body of %s has no positive atom to aggregate over", a)
	}
	var arg alt.Term = alt.CInt(1)
	if a.Expr != nil {
		if arg, err = tr.expr(a.Expr, inner); err != nil {
			return nil, nil, err
		}
	}
	name := tr.gensym("Xagg")
	conjs = append(conjs, alt.Eq(alt.Ref(name, "res"), &alt.Agg{Func: fn, Arg: arg}))
	col := alt.Col(name, []string{"res"}, alt.ExistsG(bindings, nil, alt.AndF(conjs...)))
	v := tr.gensym("x")
	return alt.BindSub(v, col), alt.Ref(v, "res"), nil
}

func (tr *arcTranslator) expr(e Expr, sites siteMap) (alt.Term, error) {
	switch x := e.(type) {
	case TermExpr:
		switch t := x.T.(type) {
		case Var:
			site, ok := sites[t.Name]
			if !ok {
				return nil, fmt.Errorf("datalog: variable %q not grounded by a positive atom", t.Name)
			}
			return alt.CloneTerm(site), nil
		case Const:
			return alt.CVal(t.Val), nil
		}
		return nil, fmt.Errorf("datalog: wildcard in expression")
	case BinExpr:
		l, err := tr.expr(x.L, sites)
		if err != nil {
			return nil, err
		}
		r, err := tr.expr(x.R, sites)
		if err != nil {
			return nil, err
		}
		var op alt.ArithOp
		switch x.Op {
		case '+':
			op = alt.OpAdd
		case '-':
			op = alt.OpSub
		case '*':
			op = alt.OpMul
		case '/':
			op = alt.OpDiv
		}
		return &alt.Arith{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("datalog: unknown expression %T", e)
}
