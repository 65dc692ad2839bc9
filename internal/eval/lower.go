package eval

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/fixpoint"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file lowers quantifier scopes onto internal/plan (plan/arc.go). A
// scope's join tree over stored relations and constants becomes a chain of
// joins that probe the leaves' indexes with its equalities, a LEFT or FULL
// node a hash join of that kind keyed by its ON equalities; its other
// predicates hold on the complete rows, and a grouped scope streams
// through γ. Chosen from the shape alone, a γ∅ nested collection
// correlated through equalities becomes a grouped lookup (the
// count-bug-safe decorrelation) and an ∃/¬∃ subformula an existence
// probe. A reference to an environment outside the lowered scopes is a
// plan parameter. Any other scope stays on environment enumeration, and
// EXPLAIN names the reason; the qgen differentials hold the two paths to
// one answer.

// arcScope is a quantifier scope lowered onto internal/plan.
type arcScope struct {
	plan *plan.Plan
	// attrs names the head attribute each output column assigns: the
	// collection's head in order when the scope assigns each of its
	// attributes once.
	attrs []string
	// params are the enclosing environment's values the plan reads, one
	// per parameter; rels the relations its scans read.
	params []*alt.AttrRef
	rels   []string
	// lead reads a Delta rule's recursive occurrence (scopeInfo.lead),
	// which is named leadRel: its delta, or in round 0 its total.
	lead    *fixpoint.Handle
	leadRel string
	// distinct is the plan's DistinctRows: a set needs no Dedup of the
	// head tuples it streams (distinctHead).
	distinct bool
}

// scopeRun is one execution of a lowered scope: its plan set up to
// stream, and the consumer of its rows.
type scopeRun struct {
	run   *plan.Run
	seq   exec.Seq
	f     func(row relation.Tuple, mult int) error
	err   error // f's
	yield func(relation.Tuple, int) bool
}

// row hands one row to f.
func (sr *scopeRun) row(t relation.Tuple, mult int) bool {
	sr.err = sr.f(t, mult)
	return sr.err == nil
}

// runScope streams the rows of a lowered scope for the environment e to
// f. A scope kept in runs runs on one execution across calls, set up once:
// a Delta rule's, whose plan reads the fixpoint only through its first
// leaf's handle, which the stream reads as it starts, while every other
// input — the environment, the relations, the tables built from them —
// stays the same for the whole fixpoint.
func (ev *evaluator) runScope(sc *arcScope, e *env, runs map[*arcScope]*scopeRun, f func(row relation.Tuple, mult int) error) error {
	sr := runs[sc]
	if sr == nil {
		var params []value.Value
		for _, r := range sc.params {
			v, err := ev.evalTerm(r, e)
			if err != nil {
				return err
			}
			params = append(params, v)
		}
		rels := make(map[string]*relation.Relation, len(sc.rels))
		for _, name := range sc.rels {
			rel, err := ev.relation(name)
			if err != nil {
				return err
			}
			rels[name] = rel
		}
		sr = &scopeRun{run: plan.NewRun(rels, params, ev.check, ev.tr)}
		sr.seq, sr.yield = sr.run.Stream(sc.plan), sr.row
		if runs != nil {
			runs[sc] = sr
		}
	}
	if sc.lead != nil {
		sr.run.Bind(sc.lead, ev.overrides[sc.leadRel])
	}
	sr.f, sr.err = f, nil
	if sr.seq(sr.yield); sr.err != nil {
		return sr.err
	}
	return sr.run.Err()
}

// produce runs the scope for one outer environment into head-assignment
// rows: for nested producing quantifiers and heads the scope does not
// assign one-to-one (headTuples streams the rest). A row that assigns
// one attribute two different values is dropped.
func (sc *arcScope) produce(ev *evaluator, e *env) ([]prodRow, error) {
	var rows []prodRow
	err := ev.runScope(sc, e, nil, func(t relation.Tuple, mult int) error {
		assign := make(map[string]value.Value, len(sc.attrs))
		for i, a := range sc.attrs {
			if prev, dup := assign[a]; dup {
				if value.Eq.Apply(prev, t[i]) != value.True {
					return nil
				}
				continue
			}
			assign[a] = t[i]
		}
		rows = append(rows, prodRow{assign: assign, weight: mult})
		return nil
	})
	return rows, err
}

// lowering is the state of one scope's lowering, shared by the scopes
// nested in it.
type lowering struct {
	ev     *evaluator
	link   *alt.Link
	params []*alt.AttrRef
	rels   []string
	lead   *fixpoint.Handle
	leadOf string
}

// level is one scope of a lowering: where its bindings' attributes lie in
// its rows, which begin with the row of the scope it is an existence
// probe of (outer), if any.
type level struct {
	si     *scopeInfo
	outer  *level
	closed bool         // a decorrelated lookup's scope: nothing in it reads outside
	leaves []leaf       // the bindings laid out so far, in order
	schema []plan.ColID // the complete row's columns
}

// leaf is one laid-out binding of a scope.
type leaf struct {
	b     *alt.Binding
	attrs []string
	start int // its first column
}

// col finds the column of the attribute attr of the leaf v ranges over.
func (lv *level) col(v, attr string) (int, bool) {
	for _, l := range lv.leaves {
		if l.b.Var == v {
			j := slices.Index(l.attrs, attr)
			return l.start + j, j >= 0
		}
	}
	return 0, false
}

// lower lowers a scope, or says why it cannot (EXPLAIN shows the reason).
func (ev *evaluator) lower(si *scopeInfo) (*arcScope, string) {
	lw := &lowering{ev: ev, link: ev.curLink()}
	lv, chain, where, reason := lw.body(si, nil)
	if chain == nil {
		return nil, reason
	}
	t, reason := lw.tail(si, lv)
	if t == nil {
		return nil, reason
	}
	if len(where) > 0 {
		chain = plan.Filter(chain, where)
	}
	if si.q.Grouping != nil {
		chain = plan.Group(chain, t.keys, t.aggs, ev.conv)
		if len(t.having) > 0 {
			chain = plan.Filter(chain, t.having)
		}
	}
	// Project the collection's head in order when the scope assigns each
	// of its attributes once, so its rows are head tuples.
	exprs, attrs := t.exprs, t.attrs
	if col := lw.link.EnclosingCol[si.q]; col != nil {
		if order, ok := headOrder(attrs, col.Head.Attrs); ok {
			exprs, attrs = make([]plan.Expr, len(order)), col.Head.Attrs
			for i, j := range order {
				exprs[i] = t.exprs[j]
			}
		}
	}
	p := plan.NewPlan(plan.Project(chain, exprs, attrs), attrs, len(lw.params))
	return &arcScope{
		plan:     p,
		attrs:    attrs,
		params:   lw.params,
		rels:     lw.rels,
		lead:     lw.lead,
		leadRel:  lw.leadOf,
		distinct: p.DistinctRows(),
	}, ""
}

// headOrder maps each head attribute to the position of the one producer
// that assigns it; ok is false when the producers assign other
// attributes, or one twice.
func headOrder(assigned, head []string) ([]int, bool) {
	if len(assigned) != len(head) {
		return nil, false
	}
	order := make([]int, len(head))
	for i, a := range head {
		if order[i] = slices.Index(assigned, a); order[i] < 0 || slices.Index(assigned[order[i]+1:], a) >= 0 {
			return nil, false
		}
	}
	return order, true
}

// body lowers a scope's join tree and predicates: the chain of its leaves,
// and the conditions its complete rows must meet — the predicates its
// joins do not apply, then its existence probes, in order, tested as
// enumeration tests them. The leaves are laid out in the tree's order; an
// inner node chains its kids, and an outer join node joins its two
// lowered sides (tree.node). A nil chain comes with the reason. outer is
// the scope this one is an existence probe of.
func (lw *lowering) body(si *scopeInfo, outer *level) (*level, plan.Node, []plan.Cond, string) {
	lv := &level{si: si, outer: outer, closed: si.closed}
	t := &tree{lowering: lw, lv: lv, consumed: map[*alt.Pred]bool{}}
	var chain plan.Node
	if outer != nil {
		lv.closed = lv.closed || outer.closed
		chain, t.ncols = plan.Outer(outer.schema), len(outer.schema)
	}
	kids := si.tree.kids
	if i := slices.IndexFunc(kids, func(k *joinNode) bool { return k.leaf != nil && k.leaf == si.lead }); i > 0 {
		kids = slices.Concat(kids[i:i+1], kids[:i], kids[i+1:])
	}
	for _, kid := range kids {
		var reason string
		if chain, reason = t.node(kid, chain, 0); chain == nil {
			return nil, nil, nil, reason
		}
	}
	if chain == nil {
		return nil, nil, nil, "scope without bindings"
	}
	lv.schema = chain.Schema()

	var where []plan.Cond
	for _, f := range si.where {
		if p := asPred(f); p != nil && t.consumed[p] {
			continue
		}
		c, ok := plan.Condition(f, lw.ref(lv, 0), nil, lw.twoValued())
		if !ok {
			return nil, nil, nil, fmt.Sprintf("predicate %s outside the term fragment", f)
		}
		where = append(where, c)
	}
	for _, f := range si.filters {
		c, reason := lw.probe(f, lv)
		if reason != "" {
			return nil, nil, nil, reason
		}
		where = append(where, c)
	}
	return lv, chain, where, ""
}

// tree is the state of lowering one scope's join tree (body).
type tree struct {
	*lowering
	lv       *level
	ncols    int // the columns laid out so far
	consumed map[*alt.Pred]bool
	// open lists the LEFT nodes whose right side is being lowered, whose
	// ON equalities that side's joins and scans may apply, as a LEFT join
	// matches only right rows they hold on. nullable is set on either
	// side of a FULL node and on the right of a LEFT one.
	open     []*joinNode
	nullable bool
}

// node lowers the join-tree node n after chain, whose rows are the
// columns [lb, t.ncols) — nil when n's rows begin them — and returns the
// chain that lays out n's columns too, or nil and the reason. A LEFT node
// joins chain, extended with its left side, to its right side; a FULL
// node joins its two sides, each lowered on its own, and chain to that.
func (t *tree) node(n *joinNode, chain plan.Node, lb int) (plan.Node, string) {
	switch {
	case n.isLeaf():
		return t.leaf(n.leaf, chain, lb)
	case n.kind == alt.JoinInner:
		for _, k := range n.kids {
			var reason string
			if chain, reason = t.node(k, chain, lb); chain == nil {
				return nil, reason
			}
		}
		return chain, ""
	}
	nullable, open := t.nullable, len(t.open)
	defer func() { t.nullable, t.open = nullable, t.open[:open] }()
	left, llb := chain, lb
	if n.kind == alt.JoinFull {
		left, llb, t.nullable = nil, t.ncols, true
	}
	left, reason := t.node(n.kids[0], left, llb)
	if left == nil {
		return nil, reason
	}
	mid := t.ncols
	if t.nullable = true; n.kind == alt.JoinLeft {
		t.open = append(t.open, n)
	}
	right, reason := t.node(n.kids[1], nil, mid)
	if right == nil {
		return nil, reason
	}
	var eqs []*alt.Pred
	for _, f := range n.on {
		if p := asPred(f); p != nil && p.Op == value.Eq {
			eqs = append(eqs, p)
		}
	}
	_, keys := t.keys(eqs, llb, mid, true, false)
	var residual []plan.Cond
	for _, f := range n.on {
		if p := asPred(f); p != nil && t.consumed[p] {
			continue
		}
		c, ok := plan.Condition(f, t.ref(t.lv, llb), nil, t.twoValued())
		if !ok {
			return nil, fmt.Sprintf("%s join condition %s reads outside its operands", strings.ToUpper(n.kind.String()), f)
		}
		residual = append(residual, c)
	}
	joined := plan.Join(n.kind, left, right, keys, residual)
	if n.kind == alt.JoinLeft || chain == nil {
		return joined, ""
	}
	_, keys = t.keys(t.usable(), lb, llb, false, false)
	return plan.Join(alt.JoinInner, chain, joined, keys, nil), ""
}

// leaf lays out the binding b after chain, as node does.
func (t *tree) leaf(b *alt.Binding, chain plan.Node, lb int) (plan.Node, string) {
	ev, lv, start := t.ev, t.lv, t.ncols
	if b.Sub != nil {
		if t.nullable {
			return nil, fmt.Sprintf("lateral source %s on a nullable side", b.Sub.Head.Rel)
		}
		// A lookup's correlation reads only the leaves before it.
		spec, reason := t.lookup(b, lv)
		if spec == nil {
			return nil, reason
		}
		lv.leaves = append(lv.leaves, leaf{b, b.Sub.Head.Attrs, start})
		t.ncols += len(b.Sub.Head.Attrs)
		if chain == nil {
			chain = plan.Unit()
		}
		return plan.Lookup(chain, *spec), ""
	}
	v, isConst := t.link.ConstOfBinding[b]
	attrs := []string{"val"}
	if !isConst {
		if !ev.stored(b.Rel) {
			return nil, fmt.Sprintf("source %s needs access patterns", b.Rel)
		}
		var err error
		if attrs, err = ev.sourceAttrs(b); err != nil {
			return nil, err.Error()
		}
	}
	lv.leaves = append(lv.leaves, leaf{b, attrs, start})
	t.ncols += len(attrs)
	var node plan.Node
	var keys []plan.JoinKey
	switch {
	case isConst:
		node = plan.ConstLeaf(b.Var, v)
	case b == lv.si.lead:
		t.lead, t.leadOf = &fixpoint.Handle{}, b.Rel
		node = plan.HandleLeaf(t.lead, b.Rel, b.Var, attrs)
	default:
		var fixed []plan.Fixed
		fixed, keys = t.keys(t.usable(), lb, start, false, true)
		t.addRel(b.Rel)
		node = plan.ScanLeaf(b.Rel, b.Var, attrs, fixed)
	}
	if chain == nil {
		return node, ""
	}
	return plan.Join(alt.JoinInner, chain, node, keys, nil), ""
}

// usable lists the equalities a join or scan lowered now may apply:
// WHERE's, and those on the ON list of a LEFT node whose right side it is
// in (open).
func (t *tree) usable() []*alt.Pred {
	var eqs []*alt.Pred
	for _, p := range t.lv.si.eqPreds {
		if h := t.lv.si.home[p]; h == nil || slices.Contains(t.open, h) {
			eqs = append(eqs, p)
		}
	}
	return eqs
}

// keys consumes the equalities among eqs between the rows [lb, mid) and
// the rows [mid, t.ncols) after them. One whose sides each read one of
// them is a key of their join: a column against a column, or any term
// when computed. With pin, the rows after mid are one scan, and one
// between an attribute of it and a constant or a parameter pins it.
func (t *tree) keys(eqs []*alt.Pred, lb, mid int, computed, pin bool) (fixed []plan.Fixed, keys []plan.JoinKey) {
	for _, p := range eqs {
		if t.consumed[p] {
			continue
		}
		for _, side := range [2][2]alt.Term{{p.Left, p.Right}, {p.Right, p.Left}} {
			me, other := side[0], side[1]
			if f, ok := t.pin(me, other, mid); pin && ok {
				fixed = append(fixed, f)
			} else if x, y, ok := t.key(other, me, lb, mid, computed); ok {
				keys = append(keys, plan.JoinKey{L: x, R: y, Str: p.String()})
			} else {
				continue
			}
			t.consumed[p] = true
			break
		}
	}
	return fixed, keys
}

// pin pins the column of the scan laid out at mid that me reads to the
// constant or parameter other.
func (t *tree) pin(me, other alt.Term, mid int) (plan.Fixed, bool) {
	r, ok := me.(*alt.AttrRef)
	if !ok {
		return plan.Fixed{}, false
	}
	src, ok := t.resolve(r, t.lv)
	if !ok || src.param >= 0 || src.col < mid {
		return plan.Fixed{}, false
	}
	switch x := other.(type) {
	case *alt.Const:
		return plan.Fixed{Col: src.col - mid, Val: x.Val, Param: -1, Str: x.String()}, !x.Val.IsNull()
	case *alt.AttrRef:
		if o, ok := t.resolve(x, t.lv); ok && o.param >= 0 {
			return plan.Fixed{Col: src.col - mid, Param: o.param, Str: x.String()}, true
		}
	}
	return plan.Fixed{}, false
}

// key compiles l over the rows [lb, mid) and r over the rows [mid,
// t.ncols) when each reads a column of its own rows and none of the
// other's: both attribute references unless computed.
func (t *tree) key(l, r alt.Term, lb, mid int, computed bool) (plan.Expr, plan.Expr, bool) {
	_, lref := l.(*alt.AttrRef)
	_, rref := r.(*alt.AttrRef)
	if !computed && !(lref && rref) || !t.within(l, lb, mid) || !t.within(r, mid, t.ncols) {
		return plan.Expr{}, plan.Expr{}, false
	}
	x, _ := plan.Term(l, t.ref(t.lv, lb), nil)
	y, _ := plan.Term(r, t.ref(t.lv, mid), nil)
	return x, y, true
}

// within reports whether the term x reads a column of the rows [lo, hi)
// of the scope t lays out, and no other column.
func (t *tree) within(x alt.Term, lo, hi int) bool {
	cols := 0
	for _, r := range alt.TermAttrRefs(x, nil) {
		src, ok := t.resolve(r, t.lv)
		switch {
		case !ok:
			return false
		case src.param >= 0:
		case src.col < lo || src.col >= hi:
			return false
		default:
			cols++
		}
	}
	return cols > 0
}

// asPred is f as a predicate, or nil.
func asPred(f alt.Formula) *alt.Pred {
	p, _ := f.(*alt.Pred)
	return p
}

// addRel records that a scan reads name.
func (lw *lowering) addRel(name string) {
	if !slices.Contains(lw.rels, name) {
		lw.rels = append(lw.rels, name)
	}
}

// source is where an attribute reference reads: column col of the row —
// of its level, whose rows begin with the rows of a scope it is a probe
// of — or (col -1) parameter param.
type source struct{ col, param int }

// resolve finds where r reads. Head references, bindings not laid out
// yet, and references that leave a closed scope are outside the fragment.
// A reference beyond the lowered scopes reads the environment through a
// parameter, one per attribute, as the environment looks it up.
func (lw *lowering) resolve(r *alt.AttrRef, lv *level) (source, bool) {
	res, known := lw.link.Refs[r]
	if !known || res.Kind != alt.RefBinding {
		return source{}, false
	}
	q := lw.link.BindingQuantifier[res.Binding]
	for l := lv; l != nil; l = l.outer {
		if q == l.si.q {
			col, ok := l.col(r.Var, r.Attr)
			return source{col: col, param: -1}, ok
		}
	}
	if lv.closed {
		return source{}, false
	}
	i := slices.IndexFunc(lw.params, func(p *alt.AttrRef) bool { return p.Var == r.Var && p.Attr == r.Attr })
	if i < 0 {
		i = len(lw.params)
		lw.params = append(lw.params, r)
	}
	return source{col: -1, param: i}, true
}

// ref resolves the attribute references of a term over lv's rows from
// column lb on, for plan.Term.
func (lw *lowering) ref(lv *level, lb int) func(*alt.AttrRef) (plan.Expr, bool) {
	return func(r *alt.AttrRef) (plan.Expr, bool) {
		src, ok := lw.resolve(r, lv)
		if src.param >= 0 {
			return plan.Param(src.param, r.String()), ok
		}
		return plan.Column(src.col-lb, r.String()), ok && src.col >= lb
	}
}

// term lowers a term over lv's rows, aggregates excepted.
func (lw *lowering) term(t alt.Term, lv *level) (plan.Expr, bool) {
	return plan.Term(t, lw.ref(lv, 0), nil)
}

// tailOf is what follows a scope's body: its γ — grouping keys, then
// the correlation keys of a decorrelated scope, and the aggregates and
// aggregate predicates over the group row — and its producers' head
// attributes and sources.
type tailOf struct {
	keys   []plan.Expr
	aggs   []plan.Aggregate
	having []plan.Cond
	exprs  []plan.Expr
	attrs  []string
}

// twoValued reports whether Unknown collapses to False.
func (lw *lowering) twoValued() bool { return lw.ev.conv.NullLogic == convention.TwoValued }

// tail lowers what follows the body of the scope lv lays out.
func (lw *lowering) tail(si *scopeInfo, lv *level) (*tailOf, string) {
	t := &tailOf{}
	q := si.q
	var aggOf []*alt.Agg
	grouped := q.Grouping != nil
	if grouped {
		for _, k := range slices.Concat(q.Grouping.Keys, si.corrKeys) {
			x, ok := lw.term(k, lv)
			if !ok {
				return nil, fmt.Sprintf("grouping key %s outside the fragment", k)
			}
			t.keys = append(t.keys, x)
		}
	} else if len(si.aggTerms) > 0 {
		return nil, "aggregates without grouping"
	}
	// Over the group row [keys..., aggregates...], grouping keys match by
	// (var, attr) and aggregates by node identity.
	ref := lw.ref(lv, 0)
	if grouped {
		ref = func(x *alt.AttrRef) (plan.Expr, bool) {
			if i := slices.IndexFunc(q.Grouping.Keys, func(k *alt.AttrRef) bool { return k.Var == x.Var && k.Attr == x.Attr }); i >= 0 {
				return plan.Column(i, x.String()), true
			}
			if res := lw.link.Refs[x]; res.Kind != alt.RefBinding || lw.link.BindingQuantifier[res.Binding] == q {
				return plan.Expr{}, false // a local attribute outside the keys needs a representative row
			}
			return lw.ref(lv, 0)(x)
		}
	}
	agg := func(x *alt.Agg) (plan.Expr, bool) {
		i := slices.Index(aggOf, x)
		if i < 0 {
			arg, ok := lw.term(x.Arg, lv)
			if !ok {
				return plan.Expr{}, false
			}
			i, aggOf, t.aggs = len(aggOf), append(aggOf, x), append(t.aggs, plan.AggregateOf(x, arg))
		}
		return plan.Column(len(t.keys)+i, x.String()), true
	}
	for _, pf := range si.producers {
		p, ok := pf.(*alt.Pred)
		if !ok || lw.ev.effPredKind(p) != alt.PredAssignment {
			return nil, "producing subformula"
		}
		head, other := p.Left, p.Right
		if lw.link.HeadSide[p] == 1 {
			head, other = p.Right, p.Left
		}
		x, ok := plan.Term(other, ref, agg)
		if !ok {
			return nil, fmt.Sprintf("assignment source %s outside the fragment", other)
		}
		t.exprs, t.attrs = append(t.exprs, x), append(t.attrs, head.(*alt.AttrRef).Attr)
	}
	for _, p := range si.aggFilters {
		c, ok := plan.Condition(p, ref, agg, lw.twoValued())
		if !ok {
			return nil, fmt.Sprintf("aggregate predicate %s outside the fragment", p)
		}
		t.having = append(t.having, c)
	}
	return t, ""
}

// lookup lowers the γ∅ nested collection b ranges over into a grouped
// lookup, or says why its shape keeps the enclosing scope on environment
// enumeration. Its scope, stripped of the predicates that read the
// enclosing scope — each must be an equality on an attribute of its own
// — is grouped by their inner sides, and the outer sides probe the
// groups.
func (lw *lowering) lookup(b *alt.Binding, lv *level) (*plan.LookupSpec, string) {
	sub := b.Sub
	q, ok := sub.Body.(*alt.Quantifier)
	if !ok || q.Grouping == nil || len(q.Grouping.Keys) > 0 || lw.link.RecursiveCols[sub] {
		return nil, fmt.Sprintf("nested collection %s is not one γ∅ scope", sub.Head.Rel)
	}
	si, err := lw.ev.scopeInfoFor(q)
	if err != nil {
		return nil, err.Error()
	}
	spec := &plan.LookupSpec{Name: sub.Head.Rel, Alias: b.Var, Attrs: sub.Head.Attrs, Conv: lw.ev.conv}
	dsi := *si
	dsi.scope, dsi.reason = nil, ""
	dsi.where, dsi.eqPreds, dsi.closed = nil, nil, true
	corr := map[*alt.Pred]bool{}
	own := func(r *alt.AttrRef) bool {
		res := lw.link.Refs[r]
		return res.Kind == alt.RefBinding && lw.link.BindingQuantifier[res.Binding] == q
	}
	for _, f := range si.where {
		if !slices.ContainsFunc(alt.FormulaAttrRefs(f, nil), func(r *alt.AttrRef) bool { return !own(r) }) {
			dsi.where = append(dsi.where, f)
			continue
		}
		p := asPred(f)
		var key *alt.AttrRef
		var other alt.Term
		if p != nil && p.Op == value.Eq {
			for _, side := range [2][2]alt.Term{{p.Left, p.Right}, {p.Right, p.Left}} {
				ref, isRef := side[0].(*alt.AttrRef)
				if isRef && own(ref) && !slices.ContainsFunc(alt.TermAttrRefs(side[1], nil), own) {
					key, other = ref, side[1]
					break
				}
			}
		}
		if key == nil {
			return nil, fmt.Sprintf("nested collection %s correlates through %s, not an equality on its own attribute", spec.Name, f)
		}
		src, ok := lw.term(other, lv)
		if !ok {
			return nil, fmt.Sprintf("correlation term %s outside the fragment", other)
		}
		corr[p] = true
		dsi.corrKeys = append(dsi.corrKeys, key)
		spec.Probe = append(spec.Probe, src)
		spec.Strs = append(spec.Strs, fmt.Sprintf("%s = %s", key, other))
	}
	for _, p := range si.eqPreds {
		if !corr[p] {
			dsi.eqPreds = append(dsi.eqPreds, p)
		}
	}
	ilv, chain, where, reason := lw.body(&dsi, nil)
	if chain == nil {
		return nil, fmt.Sprintf("nested collection %s: %s", spec.Name, reason)
	}
	t, reason := lw.tail(&dsi, ilv)
	if t == nil {
		return nil, fmt.Sprintf("nested collection %s: %s", spec.Name, reason)
	}
	order, ok := headOrder(t.attrs, sub.Head.Attrs)
	if !ok {
		return nil, fmt.Sprintf("nested collection %s does not assign each head attribute once", spec.Name)
	}
	for _, j := range order {
		spec.Head = append(spec.Head, t.exprs[j])
	}
	spec.Inner, spec.Where = chain, where
	spec.Keys, spec.Aggs, spec.Having = t.keys, t.aggs, t.having
	return spec, ""
}

// probe lowers one boolean subformula of the scope lv lays out into an
// existence probe of the complete row; the empty reason means success.
func (lw *lowering) probe(f alt.Formula, lv *level) (plan.Cond, string) {
	neg := false
	if n, ok := f.(*alt.Not); ok {
		neg, f = true, n.Kid
	}
	q, ok := f.(*alt.Quantifier)
	if !ok {
		return plan.Cond{}, "boolean subformula other than ∃ or ¬∃"
	}
	si, err := lw.ev.scopeInfoFor(q)
	switch {
	case err != nil:
		return plan.Cond{}, err.Error()
	case q.Grouping != nil:
		return plan.Cond{}, "grouped ∃ subformula"
	case len(si.producers) > 0:
		return plan.Cond{}, "∃ subformula with head assignments"
	}
	_, chain, where, reason := lw.body(si, lv)
	if chain == nil {
		return plan.Cond{}, "∃ subformula: " + reason
	}
	if len(where) > 0 {
		chain = plan.Filter(chain, where)
	}
	return plan.Probe(chain, neg, quantHeader(q)), ""
}

// ExplainCollection validates col and renders every quantifier scope
// reachable in its body: the operator tree of a lowered scope, or the
// reason a scope stays on environment enumeration. Recursive definitions
// render as one fixpoint with their whole group; the views a definition
// reads follow it, each once. A lowered scope renders the scopes nested
// in it (grouped lookups, existence probes) among its operators; the
// nested collection sources of an enumerated scope are summarized by
// their own evaluation and not expanded. base, when non-nil, replaces
// cat's own base relations, as for Prepare.
func ExplainCollection(col *alt.Collection, cat *Catalog, conv convention.Conventions, base map[string]*relation.Relation) (string, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return "", err
	}
	return Prepare(col, link, cat, conv, base, nil).Explain(nil)
}

// explainScopes renders every quantifier scope of f under the current
// link into b; with b nil it only analyzes and lowers them (Prepare). The
// scopes in the body of a lowered scope are part of its operator tree and
// already rendered there.
func (ev *evaluator) explainScopes(f alt.Formula, b *strings.Builder) error {
	switch x := f.(type) {
	case *alt.Quantifier:
		si, err := ev.explainScope(x, b, 0)
		if err != nil || si.scope != nil {
			return err
		}
		return ev.explainScopes(x.Body, b)
	case *alt.And:
		for _, k := range x.Kids {
			if err := ev.explainScopes(k, b); err != nil {
				return err
			}
		}
	case *alt.Or:
		for _, k := range x.Kids {
			if err := ev.explainScopes(k, b); err != nil {
				return err
			}
		}
	case *alt.Not:
		return ev.explainScopes(x.Kid, b)
	}
	return nil
}

// explainScope renders one scope into b, unless b is nil: its operator
// tree, annotated with ev.tr's counters, or why it stays on environment
// enumeration.
func (ev *evaluator) explainScope(q *alt.Quantifier, b *strings.Builder, depth int) (*scopeInfo, error) {
	si, err := ev.scopeInfoFor(q)
	if err != nil || b == nil {
		return si, err
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sscope %s:\n", pad, quantHeader(q))
	if sc := si.scope; sc != nil {
		b.WriteString(sc.plan.ExplainAt(depth+1, ev.tr))
	} else {
		fmt.Fprintf(b, "%s  (environment enumeration: %s)\n", pad, si.reason)
	}
	return si, nil
}

// quantHeader renders a quantifier without its body.
func quantHeader(q *alt.Quantifier) string {
	var b strings.Builder
	b.WriteString("∃")
	for i, bd := range q.Bindings {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.String())
	}
	if q.Grouping != nil {
		b.WriteString(", ")
		b.WriteString(q.Grouping.String())
	}
	return b.String()
}
