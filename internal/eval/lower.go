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
	"repro/internal/trace"
	"repro/internal/value"
)

// This file lowers quantifier scopes onto internal/plan (plan/arc.go). A
// scope whose join tree is a flat inner join over stored relations and
// constants becomes a chain of joins that probe the leaves' indexes with
// its equalities; its other predicates hold on the complete rows, and a
// grouped scope streams through γ. Chosen from the shape alone, a γ∅
// nested collection correlated through equalities becomes a grouped
// lookup (the count-bug-safe decorrelation) and an ∃/¬∃ subformula an
// existence probe. A reference to an environment outside the lowered
// scopes is a plan parameter. Any other scope stays on environment
// enumeration, and EXPLAIN names the reason; the qgen differentials hold
// the two paths to one answer.

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
}

// arcScopeFor lowers (once, cached) the scope; nil keeps it on the
// enumeration path. A traced evaluator keeps the scopes it lowers in the
// trace, and renders the ones kept there.
func (ev *evaluator) arcScopeFor(si *scopeInfo) *arcScope {
	if ev.reference {
		return nil
	}
	if !si.lowered {
		si.lowered = true
		if kept, ok := ev.tr.Kept(si.q).(*arcScope); ok {
			si.scope = kept
		} else if si.scope, si.reason = ev.lower(si); si.scope != nil && ev.tr != nil {
			ev.tr.Keep(si.q, si.scope)
		}
	}
	return si.scope
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
	leaves []leaf       // in order; a leaf not laid out yet has no binding
	schema []plan.ColID // the complete row's columns
}

// leaf is one laid-out binding of a scope.
type leaf struct {
	b     *alt.Binding
	attrs []string
	start int // its first column
}

// col finds the attribute attr of the leaf v ranges over: its column, and
// the leaf's step.
func (lv *level) col(v, attr string) (col, step int, ok bool) {
	for i, l := range lv.leaves {
		if l.b != nil && l.b.Var == v {
			j := slices.Index(l.attrs, attr)
			return l.start + j, i, j >= 0
		}
	}
	return 0, 0, false
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
	return &arcScope{
		plan:    plan.NewPlan(plan.Project(chain, exprs, attrs), attrs, len(lw.params)),
		attrs:   attrs,
		params:  lw.params,
		rels:    lw.rels,
		lead:    lw.lead,
		leadRel: lw.leadOf,
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
// enumeration tests them. Each relation leaf joins the chain on the
// equalities between its attributes and the columns before it, and
// probes its index with those against constants and parameters; such an
// equality holds on every row the join yields. A nil chain comes with
// the reason. outer is the scope this one is an existence probe of.
func (lw *lowering) body(si *scopeInfo, outer *level) (*level, plan.Node, []plan.Cond, string) {
	if si.tree.isLeaf() || si.tree.kind != alt.JoinInner || len(si.tree.kids) == 0 {
		return nil, nil, nil, "join annotation with outer joins"
	}
	ev := lw.ev
	lv := &level{si: si, outer: outer, closed: si.closed}
	var chain plan.Node
	ncols := 0
	if outer != nil {
		lv.closed = lv.closed || outer.closed
		chain, ncols = plan.Outer(outer.schema), len(outer.schema)
	}
	kids := si.tree.kids
	if i := slices.IndexFunc(kids, func(k *joinNode) bool { return k.leaf != nil && k.leaf == si.lead }); i > 0 {
		kids = slices.Concat(kids[i:i+1], kids[:i], kids[i+1:])
	}
	lv.leaves = make([]leaf, len(kids))
	consumed := map[*alt.Pred]bool{}
	for i, kid := range kids {
		if !kid.isLeaf() {
			return nil, nil, nil, "nested join annotation"
		}
		b := kid.leaf
		var node plan.Node
		if v, isConst := lw.link.ConstOfBinding[b]; isConst {
			lv.leaves[i] = leaf{b, []string{"val"}, ncols}
			node = plan.ConstLeaf(b.Var, v)
		} else if b.Sub != nil {
			// A lookup's correlation reads only the leaves before it.
			spec, reason := lw.lookup(b, lv)
			if spec == nil {
				return nil, nil, nil, reason
			}
			lv.leaves[i] = leaf{b, b.Sub.Head.Attrs, ncols}
			if chain == nil {
				chain = plan.Unit()
			}
			chain = plan.Lookup(chain, *spec)
		} else {
			if !ev.stored(b.Rel) {
				return nil, nil, nil, fmt.Sprintf("source %s needs access patterns", b.Rel)
			}
			attrs, err := ev.sourceAttrs(b)
			if err != nil {
				return nil, nil, nil, err.Error()
			}
			lv.leaves[i] = leaf{b, attrs, ncols}
			if b == si.lead {
				lw.lead, lw.leadOf = &fixpoint.Handle{}, b.Rel
				node = plan.HandleLeaf(lw.lead, b.Rel, b.Var, attrs)
			} else {
				fixed, leftCols, rightCols, keyStrs := lw.keys(lv, i, consumed)
				lw.addRel(b.Rel)
				node = plan.ScanLeaf(b.Rel, b.Var, attrs, fixed)
				if chain != nil {
					chain, node = plan.Join(chain, node, leftCols, rightCols, keyStrs), nil
				}
			}
		}
		switch {
		case node == nil:
		case chain == nil:
			chain = node
		default:
			chain = plan.Join(chain, node, nil, nil, nil)
		}
		ncols += len(lv.leaves[i].attrs)
	}
	lv.schema = chain.Schema()

	var where []plan.Cond
	for _, f := range si.where {
		if p := asPred(f); p != nil && consumed[p] {
			continue
		}
		c, ok := plan.Condition(f, lw.ref(lv), nil, lw.twoValued())
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

// keys finds the equalities of the scope lv lays out between an attribute
// of leaf i and a constant, a parameter, or a column before it, and
// consumes them: the first two pin a column of the leaf's scan, the last
// join it to the chain.
func (lw *lowering) keys(lv *level, i int, consumed map[*alt.Pred]bool) (fixed []plan.Fixed, leftCols, rightCols []int, keyStrs []string) {
	l := lv.leaves[i]
	for _, p := range lv.si.eqPreds {
		if lv.si.fullOn[p] || consumed[p] {
			continue
		}
		for _, side := range [2][2]alt.Term{{p.Left, p.Right}, {p.Right, p.Left}} {
			me, ok := side[0].(*alt.AttrRef)
			if !ok || me.Var != l.b.Var {
				continue
			}
			r, ok := lw.resolve(me, lv)
			if !ok || r.pos != i {
				continue
			}
			col := r.col - l.start
			switch other := side[1].(type) {
			case *alt.Const:
				if other.Val.IsNull() {
					continue
				}
				fixed = append(fixed, plan.Fixed{Col: col, Val: other.Val, Param: -1, Str: other.String()})
			case *alt.AttrRef:
				src, ok := lw.resolve(other, lv)
				switch {
				case !ok || src.pos >= i:
					continue
				case src.param >= 0:
					fixed = append(fixed, plan.Fixed{Col: col, Param: src.param, Str: other.String()})
				default:
					leftCols, rightCols = append(leftCols, src.col), append(rightCols, col)
					keyStrs = append(keyStrs, p.String())
				}
			default:
				continue
			}
			consumed[p] = true
			break
		}
	}
	return fixed, leftCols, rightCols, keyStrs
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

// source is where an attribute reference reads: column col of the row,
// of the leaf at step pos of its level or (pos -1) of the row of a scope
// it is a probe of; or (col -1) parameter param.
type source struct{ col, param, pos int }

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
		if q != l.si.q {
			continue
		}
		col, step, ok := l.col(r.Var, r.Attr)
		if l != lv {
			step = -1
		}
		return source{col: col, param: -1, pos: step}, ok
	}
	if lv.closed {
		return source{}, false
	}
	i := slices.IndexFunc(lw.params, func(p *alt.AttrRef) bool { return p.Var == r.Var && p.Attr == r.Attr })
	if i < 0 {
		i = len(lw.params)
		lw.params = append(lw.params, r)
	}
	return source{col: -1, param: i, pos: -1}, true
}

// ref resolves the attribute references of a term over lv's rows for
// plan.Term.
func (lw *lowering) ref(lv *level) func(*alt.AttrRef) (plan.Expr, bool) {
	return func(r *alt.AttrRef) (plan.Expr, bool) {
		src, ok := lw.resolve(r, lv)
		if src.param >= 0 {
			return plan.Param(src.param, r.String()), ok
		}
		return plan.Column(src.col, r.String()), ok
	}
}

// term lowers a term over lv's rows, aggregates excepted.
func (lw *lowering) term(t alt.Term, lv *level) (plan.Expr, bool) {
	return plan.Term(t, lw.ref(lv), nil)
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
	ref := lw.ref(lv)
	if grouped {
		ref = func(x *alt.AttrRef) (plan.Expr, bool) {
			if i := slices.IndexFunc(q.Grouping.Keys, func(k *alt.AttrRef) bool { return k.Var == x.Var && k.Attr == x.Attr }); i >= 0 {
				return plan.Column(i, x.String()), true
			}
			if res := lw.link.Refs[x]; res.Kind != alt.RefBinding || lw.link.BindingQuantifier[res.Binding] == q {
				return plan.Expr{}, false // a local attribute outside the keys needs a representative row
			}
			return lw.ref(lv)(x)
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
	dsi.scope, dsi.lowered, dsi.reason = nil, false, ""
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
// cat's own base relations, as for EvalPrepared.
func ExplainCollection(col *alt.Collection, cat *Catalog, conv convention.Conventions, base map[string]*relation.Relation) (string, error) {
	return ExplainAnalyzed(col, cat, conv, base, nil)
}

// ExplainAnalyzed is ExplainCollection for the execution traced by tr
// (EvalPrepared): each scope that execution lowered renders with its
// operators' counters.
func ExplainAnalyzed(col *alt.Collection, cat *Catalog, conv convention.Conventions, base map[string]*relation.Relation, tr *trace.Trace) (string, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return "", err
	}
	ev := newEvaluator(cat, conv)
	if base != nil {
		ev.base = base
	}
	ev.tr = tr
	var b strings.Builder
	if err := ev.explain(recDef{col, link}, &b, map[string]bool{}); err != nil {
		return "", err
	}
	return b.String(), nil
}

// explain renders one definition and then, under a "view" header, every
// view it reads that done does not list yet.
func (ev *evaluator) explain(d recDef, b *strings.Builder, done map[string]bool) error {
	defs := ev.recursiveGroup(d.col, d.link)
	if defs != nil {
		// Recursive definitions render their fixpoint rules (with the
		// per-round delta plans) instead of the flat scope walk.
		if err := ev.explainRecursive(defs, b); err != nil {
			return err
		}
	} else {
		defs = []recDef{d}
		ev.pushLink(d.link)
		err := ev.explainScopes(d.col.Body, b)
		ev.popLink()
		if err != nil {
			return err
		}
	}
	for _, m := range defs {
		done[m.col.Head.Rel] = true
	}
	for _, m := range defs {
		var err error
		eachBoundRel(m.col.Body, false, func(rel string, _ bool) {
			v, isView := ev.viewDef(rel)
			if err != nil || done[rel] || !isView {
				return
			}
			fmt.Fprintf(b, "view %s:\n", rel)
			err = ev.explain(v, b, done)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// explainScopes renders every quantifier scope of f under the current
// link. The scopes in the body of a lowered scope are part of its
// operator tree and already rendered there.
func (ev *evaluator) explainScopes(f alt.Formula, b *strings.Builder) error {
	switch x := f.(type) {
	case *alt.Quantifier:
		if err := ev.explainScope(x, b, 0); err != nil {
			return err
		}
		if ev.scopeCache[x].scope != nil {
			return nil
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

// explainScope renders one scope: its operator tree, or why it stays on
// environment enumeration.
func (ev *evaluator) explainScope(q *alt.Quantifier, b *strings.Builder, depth int) error {
	si, err := ev.scopeInfoFor(q)
	if err != nil {
		return err
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sscope %s:\n", pad, quantHeader(q))
	if sc := ev.arcScopeFor(si); sc != nil {
		b.WriteString(sc.plan.ExplainAt(depth+1, ev.tr))
	} else {
		fmt.Fprintf(b, "%s  (environment enumeration: %s)\n", pad, si.reason)
	}
	return nil
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
