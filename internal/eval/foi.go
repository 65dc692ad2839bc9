package eval

import (
	"slices"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/plan"
	"repro/internal/value"
)

// foiAsFIO is the note EXPLAIN puts on a scope asFIO lowered.
const foiAsFIO = "FOI as FIO: set semantics"

// asFIO lowers a FOI aggregate over the relation it is correlated with
// (Fig 5c, query (7); what a Datalog aggregate translates to)
//
//	∃t ∈ R, x ∈ {X(ā) | ∃s ∈ R, γ∅ [⋀ s.kᵢ = t.kᵢ ∧ ⋀ X.aⱼ = aggⱼ(s.cⱼ)]} [φ]
//
// to the FIO γ (query (3)) the two patterns are equal to under set
// semantics: γ over R by k̄, then φ over the group rows. It returns the
// chain and the head's producers, or a nil chain when si is not of that
// shape:
//   - the conventions are set semantics: under bags FOI yields a row per
//     outer tuple, γ one per group;
//   - t and s range over the one stored relation R, so every group is
//     some outer tuple's and no outer tuple lacks one (the count bug's
//     empty groups cannot arise);
//   - there is at least one correlation equality, each pairing a column
//     of s with the same column of t, and nothing else correlates or
//     filters the inner scope;
//   - each aggregate reads a column of s, or is count over a constant
//     that is not NULL (count(*));
//   - φ reads only t.kᵢ and x.aⱼ, and its conditions each read some
//     x.aⱼ (the NOT NULL test Datalog adds for min, max and mean is one):
//     a condition on t alone could pin t's scan, and then the lookup
//     would never read, nor fail on, the groups it excludes.
//
// The lookup admits no NULL correlation value, so an outer tuple whose
// key holds a NULL reads the empty group; the γ is built with
// GroupNullEmpty, whose NULL-keyed groups fold no row, to match — and so
// a row no lookup would aggregate cannot fail the query either.
func (lw *lowering) asFIO(si *scopeInfo) (plan.Node, *tailOf) {
	q := si.q
	if lw.ev.conv.Semantics != convention.Set || q.Grouping != nil || si.lead != nil ||
		len(q.Bindings) != 2 || !innerLeaves(si.tree, 2) || len(si.filters) > 0 || len(si.aggTerms) > 0 {
		return nil, nil
	}
	t, x := q.Bindings[0], q.Bindings[1]
	if t.Sub != nil {
		t, x = x, t
	}
	if t.Sub != nil || x.Sub == nil || lw.link.RecursiveCols[x.Sub] || !lw.ev.stored(t.Rel) {
		return nil, nil
	}
	if _, isConst := lw.link.ConstOfBinding[t]; isConst {
		return nil, nil
	}
	iq, ok := x.Sub.Body.(*alt.Quantifier)
	if !ok || iq.Grouping == nil || len(iq.Grouping.Keys) > 0 || len(iq.Bindings) != 1 {
		return nil, nil
	}
	isi, err := lw.ev.scopeInfoFor(iq)
	s := iq.Bindings[0]
	if err != nil || s.Sub != nil || s.Rel != t.Rel || !innerLeaves(isi.tree, 1) || len(isi.filters) > 0 || len(isi.aggFilters) > 0 {
		return nil, nil
	}
	attrs, err := lw.ev.sourceAttrs(t)
	if err != nil {
		return nil, nil
	}
	// binds reports whether the attribute reference r reads b.
	binds := func(r *alt.AttrRef, b *alt.Binding) bool {
		res, ok := lw.link.Refs[r]
		return ok && res.Kind == alt.RefBinding && res.Binding == b
	}

	// The correlation: s.k = t.k, either way round, one per column k.
	var keyAttrs []string
	for _, f := range isi.where {
		p := asPred(f)
		if p == nil || p.Op != value.Eq {
			return nil, nil
		}
		l, lok := p.Left.(*alt.AttrRef)
		r, rok := p.Right.(*alt.AttrRef)
		if !lok || !rok || l.Attr != r.Attr || slices.Contains(keyAttrs, l.Attr) ||
			!(binds(l, s) && binds(r, t) || binds(l, t) && binds(r, s)) {
			return nil, nil
		}
		keyAttrs = append(keyAttrs, l.Attr)
	}
	if len(keyAttrs) == 0 {
		return nil, nil
	}
	var keys []plan.Expr
	for _, a := range keyAttrs {
		keys = append(keys, plan.Column(slices.Index(attrs, a), alt.Ref(t.Var, a).String()))
	}

	// The aggregates, one per head attribute of the collection, in order.
	var heads []string
	var aggs []plan.Aggregate
	for _, pf := range isi.producers {
		p, ok := pf.(*alt.Pred)
		if !ok || lw.ev.effPredKind(p) != alt.PredAssignment {
			return nil, nil
		}
		head, src := p.Left, p.Right
		if lw.link.HeadSide[p] == 1 {
			head, src = p.Right, p.Left
		}
		a, ok := src.(*alt.Agg)
		if !ok {
			return nil, nil
		}
		switch arg := a.Arg.(type) {
		case *alt.AttrRef:
			c := slices.Index(attrs, arg.Attr)
			if !binds(arg, s) || c < 0 {
				return nil, nil
			}
			// Read off the one scan of R, as t.
			over := &alt.Agg{Func: a.Func, Arg: alt.Ref(t.Var, arg.Attr)}
			aggs = append(aggs, plan.AggregateOf(over, plan.Column(c, over.Arg.String())))
		case *alt.Const:
			if a.Func != alt.AggCount || arg.Val.IsNull() {
				return nil, nil
			}
			aggs = append(aggs, plan.RowCount(a.String()))
		default:
			return nil, nil
		}
		heads = append(heads, head.(*alt.AttrRef).Attr)
	}
	order, ok := headOrder(heads, x.Sub.Head.Attrs)
	if !ok {
		return nil, nil
	}
	byHead := make([]plan.Aggregate, len(order))
	for i, j := range order {
		byHead[i] = aggs[j]
	}

	// φ over the group row [k̄..., ā...].
	sawX := false
	ref := func(r *alt.AttrRef) (plan.Expr, bool) {
		switch {
		case binds(r, t):
			if i := slices.Index(keyAttrs, r.Attr); i >= 0 {
				return plan.Column(i, r.String()), true
			}
		case binds(r, x):
			if j := slices.Index(x.Sub.Head.Attrs, r.Attr); j >= 0 {
				sawX = true
				return plan.Column(len(keys)+j, r.String()), true
			}
		}
		return plan.Expr{}, false
	}
	chain := plan.GroupNullEmpty(plan.ScanLeaf(t.Rel, t.Var, attrs, nil), keys, byHead, lw.ev.conv)
	var conds []plan.Cond
	for _, f := range si.where {
		sawX = false
		c, ok := plan.Condition(f, ref, nil, lw.twoValued())
		if !ok || !sawX {
			return nil, nil
		}
		conds = append(conds, c)
	}
	if len(conds) > 0 {
		chain = plan.Filter(chain, conds)
	}
	tl := &tailOf{}
	for _, pf := range si.producers {
		p, ok := pf.(*alt.Pred)
		if !ok || lw.ev.effPredKind(p) != alt.PredAssignment {
			return nil, nil
		}
		head, other := p.Left, p.Right
		if lw.link.HeadSide[p] == 1 {
			head, other = p.Right, p.Left
		}
		e, ok := plan.Term(other, ref, nil)
		if !ok {
			return nil, nil
		}
		tl.exprs, tl.attrs = append(tl.exprs, e), append(tl.attrs, head.(*alt.AttrRef).Attr)
	}
	lw.addRel(t.Rel)
	return chain, tl
}

// innerLeaves reports whether the join tree n is an inner join of k
// binding leaves.
func innerLeaves(n *joinNode, k int) bool {
	return !treeHasOuter(n) && len(n.kids) == k &&
		!slices.ContainsFunc(n.kids, func(k *joinNode) bool { return !k.isLeaf() })
}
