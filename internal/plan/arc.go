package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file is what internal/eval lowers an ARC quantifier scope onto:
// builders over this package's operators and expression closures, and the
// operators only a scope needs. A scope is a left-deep chain of joins over
// its leaves (Join) — inner, or the LEFT and FULL joins of its join
// annotation: scans that probe a stored relation's index, a recursive
// occurrence read through a fixpoint.Handle, constants.
// Its other predicates hold on the complete row (Filter); then come γ
// (Group) and the head (Project). Two operators nest one scope in
// another, chosen from the scope's shape alone: the γ∅ grouped lookup
// (Lookup) and the ∃/¬∃ existence probe (Probe). docs/INVARIANTS.md, "The
// decorrelation contract", states what they guarantee.

// Expr is a compiled scalar term over the row of the node it is given to.
type Expr struct {
	fn  exprFn
	str string
	col int // 1 + the column it copies verbatim (Column), 0 for any other
}

// Column reads column i of the row.
func Column(i int, str string) Expr {
	return Expr{func(t relation.Tuple, _ *runCtx) value.Value { return t[i] }, str, i + 1}
}

// Param reads the value bound to 0-based parameter i.
func Param(i int, str string) Expr {
	return Expr{fn: func(_ relation.Tuple, ctx *runCtx) value.Value { return ctx.param(i) }, str: str}
}

// arcOps are the ARC arithmetic operators' kernels.
var arcOps = [...]func(a, b value.Value) (value.Value, bool){
	alt.OpAdd: value.Add, alt.OpSub: value.Sub, alt.OpMul: value.Mul, alt.OpDiv: value.Div,
}

// Term compiles an ARC term: ref resolves its attribute references, and
// agg its aggregates (nil: none may appear). An arithmetic type error
// fails the execution.
func Term(t alt.Term, ref func(*alt.AttrRef) (Expr, bool), agg func(*alt.Agg) (Expr, bool)) (Expr, bool) {
	switch x := t.(type) {
	case *alt.Const:
		v := x.Val
		return Expr{fn: func(relation.Tuple, *runCtx) value.Value { return v }, str: x.String()}, true
	case *alt.AttrRef:
		return ref(x)
	case *alt.Agg:
		if agg != nil {
			return agg(x)
		}
	case *alt.Arith:
		l, okL := Term(x.L, ref, agg)
		r, okR := Term(x.R, ref, agg)
		str := x.String()
		return Expr{fn: arith(arcOps[x.Op], str, l.fn, r.fn), str: str}, okL && okR
	}
	return Expr{}, false
}

// Cond is a compiled predicate over the row of the node it is given to.
type Cond struct {
	fn    predFn
	str   string
	probe *probe // the existence probe it tests, if any (for EXPLAIN)
}

// Condition compiles an ARC predicate or IS NULL test over the terms Term
// compiles with ref and agg; under two-valued logic Unknown is False.
func Condition(f alt.Formula, ref func(*alt.AttrRef) (Expr, bool), agg func(*alt.Agg) (Expr, bool), twoValued bool) (Cond, bool) {
	switch x := f.(type) {
	case *alt.Pred:
		l, okL := Term(x.Left, ref, agg)
		r, okR := Term(x.Right, ref, agg)
		op := x.Op
		return Cond{fn: func(t relation.Tuple, ctx *runCtx) value.TV {
			tv := op.Apply(l.fn(t, ctx), r.fn(t, ctx))
			if tv == value.Unknown && twoValued {
				return value.False
			}
			return tv
		}, str: x.String()}, okL && okR
	case *alt.IsNull:
		arg, ok := Term(x.Arg, ref, agg)
		neg := x.Negated
		return Cond{fn: func(t relation.Tuple, ctx *runCtx) value.TV {
			return value.TVFromBool(arg.fn(t, ctx).IsNull() != neg)
		}, str: x.String()}, ok
	}
	return Cond{}, false
}

// holdsAll tests conds on t in order and stops at the first that does not
// hold, as enumeration does; an evaluation error is left in ctx.err.
func holdsAll(conds []Cond, t relation.Tuple, ctx *runCtx) bool {
	for _, c := range conds {
		if !c.fn(t, ctx).Holds() || ctx.err != nil {
			return false
		}
	}
	return true
}

// Filter keeps the rows of in on which every condition holds (holdsAll).
func Filter(in Node, conds []Cond) Node {
	return newFilter(in, conds, func(t relation.Tuple, ctx *runCtx) value.TV {
		return value.TVFromBool(holdsAll(conds, t, ctx))
	})
}

// newFilter keeps the rows of in on which pred, over conds, holds.
func newFilter(in Node, conds []Cond, pred predFn) *filterNode {
	n := &filterNode{input: in, pred: pred, str: condStr(conds)}
	for _, c := range conds {
		for p := c.probe; p != nil; p = p.rest {
			n.probes = append(n.probes, p)
		}
	}
	return n
}

// condStr renders conditions as their conjunction.
func condStr(conds []Cond) string {
	strs := make([]string, len(conds))
	for i, c := range conds {
		strs[i] = c.str
	}
	return strings.Join(strs, " AND ")
}

// Fixed pins column Col of a scanned leaf to a constant or, when Param is
// not negative, to the value of that parameter.
type Fixed struct {
	Col   int
	Val   value.Value
	Param int
	Str   string
}

// ScanLeaf scans the stored relation name under alias, restricted by
// fixed through its index. A join whose right side it is probes that
// index.
func ScanLeaf(name, alias string, attrs []string, fixed []Fixed) Node {
	n := newScanNode(name, attrs, alias)
	for _, f := range fixed {
		n.probes = append(n.probes, scanProbe{col: f.Col, val: f.Val, param: f.Param})
		n.probeStrs = append(n.probeStrs, attrs[f.Col]+"="+f.Str)
	}
	return n
}

// HandleLeaf scans the relation h is bound to in the execution (Run.Bind),
// under alias: a recursive rule's rotating delta, as a recursive CTE's
// step reads it.
func HandleLeaf(h *fixpoint.Handle, name, alias string, attrs []string) Node {
	return newCTENode(&cteBinding{name: name, attrs: attrs, handle: h, delta: true}, alias)
}

// ConstLeaf is the one-row relation {val: v} under alias.
func ConstLeaf(alias string, v value.Value) Node {
	return &valuesNode{row: relation.Tuple{v}, schema: []ColID{{Rel: alias, Col: "val"}}}
}

// Outer is the first leaf of a Probe's scope: the row the probe tests,
// whose columns are the enclosing scope's.
func Outer(schema []ColID) Node { return &outerNode{schema: schema} }

// Unit yields one empty row: the input of a scope whose first leaf is a
// Lookup.
func Unit() Node { return &valuesNode{row: relation.Tuple{}} }

// joinKinds maps an ARC join annotation's kind to a join's.
var joinKinds = [...]joinKind{alt.JoinInner: joinInner, alt.JoinLeft: joinLeft, alt.JoinFull: joinFull}

// Join joins left and right on keys, a cross join without keys, as the
// inner, left or full outer join kind says: a LEFT join null-extends the
// left rows without a match, a FULL join the right ones too. residual
// must hold too on the rows left ++ right it pairs. A key side that is
// not a column is computed for the join (keyJoin), and the joined rows
// drop it. The right side is built; a scan of a stored relation builds
// nothing and is probed through its index, except under FULL.
func Join(kind alt.JoinKind, left, right Node, keys []JoinKey, residual []Cond) Node {
	n := keyJoin(joinKinds[kind], left, right, keys)
	nl, nlx := len(left.Schema()), len(n.left.Schema())-len(left.Schema())
	if len(residual) > 0 {
		n.residual = func(t relation.Tuple, ctx *runCtx) value.TV { return value.TVFromBool(holdsAll(residual, t, ctx)) }
		n.residualStr, n.gap = condStr(residual), nlx
	}
	if len(n.schema) == nl+len(right.Schema()) {
		return n
	}
	p := newProjectNode(n, nil, nil)
	p.schema = slices.Concat(left.Schema(), right.Schema())
	for i := range p.schema {
		if i >= nl {
			i += nlx
		}
		p.exprs = append(p.exprs, Column(i, "").fn)
	}
	return p
}

// Aggregate is one aggregate column of a Group or a Lookup.
type Aggregate struct{ spec aggSpec }

// arcAggs are ARC's aggregate functions in γ's terms.
var arcAggs = [...]struct {
	fn      exec.AggFunc
	numeric bool // non-null inputs must be numeric
}{alt.AggSum: {exec.Sum, true}, alt.AggCount: {exec.CountCol, false}, alt.AggCountDistinct: {exec.CountDistinct, false},
	alt.AggAvg: {exec.Avg, true}, alt.AggMin: {exec.Min, false}, alt.AggMax: {exec.Max, false}}

// AggregateOf is a over the values of arg.
func AggregateOf(a *alt.Agg, arg Expr) Aggregate {
	f := arcAggs[a.Func]
	return Aggregate{aggSpec{fn: f.fn, arg: arg.fn, col: arg.col, name: a.Func.String(), str: a.String(), numeric: f.numeric}}
}

// RowCount counts rows, as count(*) does: count over a term that is never
// NULL, which str renders.
func RowCount(str string) Aggregate {
	return Aggregate{aggSpec{fn: exec.Count, name: "count", str: str}}
}

// Group is γ over in: one row [keys..., aggregates...] per group, one
// group over no rows without keys.
func Group(in Node, keys []Expr, aggs []Aggregate, conv convention.Conventions) Node {
	return newGroup(in, keys, aggs, conv, false)
}

// GroupNullEmpty is Group, except that a group whose key holds a NULL
// folds no row and yields every aggregate over no rows
// (exec.GroupAggregateNullEmpty): its row is the one a γ∅ Lookup
// correlated on the keys reads for a NULL value, before its aggregate
// predicates and head. It is what a FOI aggregate over the relation it
// is correlated with lowers to under set semantics.
func GroupNullEmpty(in Node, keys []Expr, aggs []Aggregate, conv convention.Conventions) Node {
	return newGroup(in, keys, aggs, conv, true)
}

func newGroup(in Node, keys []Expr, aggs []Aggregate, conv convention.Conventions, nullEmpty bool) *groupNode {
	g := &groupNode{input: in, keys: slices.Clone(keys), conv: conv, nullEmpty: nullEmpty}
	for _, a := range aggs {
		g.aggs = append(g.aggs, a.spec)
	}
	g.layout()
	return g
}

// Project computes exprs into a row with one column per name.
func Project(in Node, exprs []Expr, names []string) Node {
	fns := make([]exprFn, len(exprs))
	strs := make([]string, len(exprs))
	copied := make([]int, len(exprs))
	for i, x := range exprs {
		fns[i], strs[i], copied[i] = x.fn, x.str, x.col-1
	}
	n := newProjectNode(in, fns, names)
	n.exprStrs, n.copied = strs, copied
	return n
}

// NewPlan is a plan over root for Run, reading nparams parameters.
func NewPlan(root Node, attrs []string, nparams int) *Plan {
	return &Plan{root: root, attrs: attrs, nparams: nparams}
}

// DistinctRows reports whether every execution of the plan yields
// distinct rows of weight 1, from its shape alone: its root projects the
// rows of γ — through the filters of a HAVING — and copies every grouping
// key into a column. γ yields each group once with weight 1, and it
// groups by Hash and Equal, the equivalence exec.Dedup removes duplicates
// by (NULL keys and NaN, which is NULL, form one group), so two rows that
// agree on every column agree on the keys and are one group.
func (p *Plan) DistinctRows() bool {
	pn, ok := p.root.(*projectNode)
	if !ok {
		return false
	}
	in := pn.input
	for f, ok := in.(*filterNode); ok; f, ok = in.(*filterNode) {
		in = f.input
	}
	g, ok := in.(*groupNode)
	if !ok {
		return false
	}
	for k := range g.keys {
		if !slices.Contains(pn.copied, k) {
			return false
		}
	}
	return true
}

// ExplainAt renders the plan with every line indented depth levels,
// annotated with tr's counters when tr is not nil.
func (p *Plan) ExplainAt(depth int, tr *trace.Trace) string {
	var b strings.Builder
	p.root.writeExplain(&b, depth, tr)
	return b.String()
}

// Run is one execution of plans built with NewPlan: they share its
// relations, parameters, fixpoint handles and per-execution caches, so a
// recursive rule's tree builds its static sides once however many rounds
// it runs. Like runCtx, a Run belongs to one goroutine.
type Run struct{ ctx runCtx }

// NewRun starts an execution over rels with bound parameter values. check
// and tr are StreamOn's.
func NewRun(rels map[string]*relation.Relation, params []value.Value, check func() error, tr *trace.Trace) *Run {
	return &Run{runCtx{rels: rels, params: params, check: check, trace: tr}}
}

// Bind points h at rel for the streams that follow.
func (r *Run) Bind(h *fixpoint.Handle, rel *relation.Relation) { r.ctx.setHandle(h, rel) }

// Stream streams p's rows. A yielded row is valid until yield returns.
// The root of an ARC scope's plan is its head's projection, which polls
// the execution's check and stops at its first error, so nothing wraps
// it, unless it passes its input's rows through (a copy such as
// Q(a,b) :- R(a,b) over a scan): then guard polls in its place.
func (r *Run) Stream(p *Plan) exec.Seq {
	s := p.root.Run(&r.ctx)
	if pn, ok := p.root.(*projectNode); ok && pn.passesThrough(&r.ctx) {
		return guard(s, &r.ctx)
	}
	return s
}

// Err is the execution's first error.
func (r *Run) Err() error { return r.ctx.err }

// outerNode yields the row of the running Probe (Outer).
type outerNode struct{ schema []ColID }

func (n *outerNode) Schema() []ColID { return n.schema }

func (n *outerNode) Run(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) { yield(ctx.outer, 1) }
}

func (n *outerNode) writeExplain(b *strings.Builder, depth int, _ *trace.Trace) {
	indent(b, depth)
	b.WriteString("Outer\n")
}

// probe is an existence test of the row a condition holds on: an ARC ∃
// (negated, ¬∃), a SQL [NOT] EXISTS or [NOT] IN. Its inner scope begins
// with the tested row (Outer), unless nothing in it reads that row.
type probe struct {
	inner Node
	neg   bool
	label string
	// keyed: the answer is a function of the tested row's values at by
	// (none: the probe is static) within one round of an execution, so the
	// execution keeps it by those values. A SQL probe records the columns
	// its inner scope reads; an ARC probe is keyed only when static.
	keyed bool
	by    []int
	byStr []string
	// SQL IN: x reads the left operand off the tested row, inner is the
	// subquery's scope restricted to x = e, and rest its scope without
	// that equality, whose rows elem reads e off.
	x, elem exprFn
	rest    *probe
}

// Probe is the existence probe of inner, negated by neg, as a condition
// on the enclosing row: two-valued, as enumeration tests it. label names
// the subformula in EXPLAIN.
func Probe(inner Node, neg bool, label string) Cond {
	p := &probe{inner: inner, neg: neg, label: label, keyed: subtreeStatic(inner)}
	if neg {
		label = "¬" + label
	}
	return Cond{fn: p.holds, str: label, probe: p}
}

// holds tests the row t: whether the inner scope has a row (negated by
// neg), or for IN, x = e folded over its elements under 3VL — True when
// some e equals x, else Unknown when some e is NULL or incomparable with
// x, or x is NULL and the scope has a row, else False.
func (p *probe) holds(t relation.Tuple, ctx *runCtx) value.TV {
	if p.rest == nil {
		return value.TVFromBool(ctx.probeRun(p).run(t).rows != p.neg)
	}
	x, tv := p.x(t, ctx), value.False
	switch {
	case !x.IsNull() && ctx.probeRun(p).run(t).rows:
		tv = value.True
	case ctx.probeRun(p.rest).run(t).unknown(x):
		tv = value.Unknown
	}
	if p.neg {
		tv = tv.Not()
	}
	return tv
}

// found is what a run of a probe's inner scope saw: a row, a NULL
// element, the comparability classes (value.Compare) of the others.
type found struct {
	rows, nulls bool
	classes     uint8
}

// classes maps a value's kind to its comparability class.
var classes = [...]uint8{value.KindInt: 1, value.KindFloat: 1, value.KindString: 2, value.KindBool: 4}

// unknown reports whether x = e is Unknown for some element e seen.
func (f found) unknown(x value.Value) bool {
	return f.rows && (x.IsNull() || f.nulls || f.classes&^classes[x.Kind()] != 0)
}

// probeRun is one execution's state of a probe, in the runCtx, never on
// the plan: its inner stream, set up by its first test, and a keyed
// probe's answers. When a fixpoint handle moves (setHandle) both go.
type probeRun struct {
	p     *probe
	ctx   *runCtx
	seq   exec.Seq
	next  func(relation.Tuple, int) bool // see, made once
	found found
	// answers[i] is the answer for the values keys[i*len(by):][:len(by)],
	// chained by their hash as slot i.
	chains  relation.Chains
	keys    []value.Value
	answers []found
}

// probeRun returns the execution's state of p, made by its first test.
func (c *runCtx) probeRun(p *probe) *probeRun {
	for _, r := range c.probes {
		if r.p == p {
			return r
		}
	}
	r := &probeRun{p: p, ctx: c}
	r.next = r.see
	c.probes = append(c.probes, r)
	return r
}

// forget drops the stream and the answers, which may hold a relation a
// fixpoint handle no longer points at.
func (r *probeRun) forget() {
	r.seq, r.chains, r.keys, r.answers = nil, relation.Chains{}, r.keys[:0], r.answers[:0]
}

// see records a row of the inner scope and reports whether the run must
// go on: only an element probe does, until it sees a NULL element.
func (r *probeRun) see(row relation.Tuple, _ int) bool {
	r.found.rows = true
	if r.p.elem == nil {
		return false
	}
	e := r.p.elem(row, r.ctx)
	r.found.nulls, r.found.classes = r.found.nulls || e.IsNull(), r.found.classes|classes[e.Kind()]
	return !r.found.nulls && r.ctx.err == nil
}

// run returns what the inner scope finds from the tested row t: a keyed
// probe's answer for t's values if it has one, else a run of the inner
// stream, which allocates nothing once set up.
func (r *probeRun) run(t relation.Tuple) found {
	p, ctx := r.p, r.ctx
	var h uint64
	if p.keyed {
		h = t.HashAt(p.by)
		ch := r.chains.Chain(h)
		for i := ch.First(); i >= 0; i = ch.Next(i) {
			if same(r.keys[i*len(p.by):], t, p.by) {
				r.found = r.answers[i]
				r.count()
				return r.found
			}
		}
	}
	r.found = found{}
	if r.seq == nil {
		r.seq = p.inner.Run(ctx)
	}
	saved := ctx.outer
	ctx.outer = t
	r.seq(r.next)
	ctx.outer = saved
	if p.keyed {
		r.answers = append(r.answers, r.found)
		for _, c := range p.by {
			r.keys = append(r.keys, t[c])
		}
		r.chains.Add(h)
	}
	r.count()
	return r.found
}

// same reports whether t holds at cols the values keys begins with, each
// of the same kind: an answer kept for the int 3 does not serve 3.0,
// whose arithmetic differs.
func same(keys []value.Value, t relation.Tuple, cols []int) bool {
	for i, c := range cols {
		if k := keys[i]; k.Kind() != t[c].Kind() || !k.Equal(t[c]) {
			return false
		}
	}
	return true
}

// count records a test in a traced execution.
func (r *probeRun) count() {
	if r.ctx.trace == nil {
		return
	}
	op := r.ctx.trace.Op(r.p)
	if r.found.rows {
		op.ProbeHits++
	} else {
		op.ProbeMisses++
	}
}

func (p *probe) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	name := map[bool]string{false: "SemiProbe", true: "AntiProbe"}[p.neg]
	if p.elem != nil {
		name = "UnknownProbe"
	}
	fmt.Fprintf(b, "%s %s", name, p.label)
	switch {
	case p.keyed && len(p.by) == 0:
		b.WriteString(" static")
	case p.keyed:
		fmt.Fprintf(b, " by(%s)", strings.Join(p.byStr, ", "))
	}
	if tr != nil {
		if op := tr.Lookup(p); op == nil {
			b.WriteString(" (never executed)")
		} else {
			fmt.Fprintf(b, " (probes=%d matches=%d)", op.ProbeHits+op.ProbeMisses, op.ProbeHits)
		}
	}
	b.WriteString("\n")
	p.inner.writeExplain(b, depth+1, tr)
}

// LookupSpec is a γ∅ nested collection correlated to the scope around it
// through equalities, and the binding that ranges over it (Lookup).
type LookupSpec struct {
	Name, Alias string   // the collection's head relation, the binding's variable
	Attrs       []string // the collection's head attributes
	Strs        []string // the correlation equalities, for EXPLAIN
	// Probe reads, over the enclosing row, the outer sides of the
	// correlation equalities.
	Probe []Expr
	// Inner is the collection's scope without the correlation
	// equalities, and Where its authoritative conditions.
	Inner Node
	Where []Cond
	// Keys (the inner sides of the correlation equalities) and Aggs read
	// Inner's rows; Having and Head the group row [keys..., aggregates...].
	Keys   []Expr
	Aggs   []Aggregate
	Having []Cond
	Head   []Expr
	Conv   convention.Conventions
}

// groupRow is what a Lookup holds for one group: the collection's head
// tuple, nil when an aggregate predicate fails the group, or the error
// evaluating the group raised.
type groupRow struct {
	row relation.Tuple
	err error
}

// lookupNode is Lookup's operator.
type lookupNode struct {
	input Node
	LookupSpec
	// empty is γ∅ over no tuples under Conv, computed once: the row of a
	// value without a group and of a NULL one.
	empty  groupRow
	schema []ColID
	hint   exec.SizeHint // the groups
}

// lookupTable is one execution's groups of a lookupNode: the correlation
// values and row of each, chained by the hash of the values.
type lookupTable struct {
	keys   []relation.Tuple
	rows   []groupRow
	chains relation.Chains // slot i is keys[i] and rows[i]
	// slab is what the groups' head tuples are cut from.
	slab []value.Value
}

// cut returns a tuple of width w cut from the table's slab, which it
// replaces, with one of twice the length, when too little of it is left.
func (tab *lookupTable) cut(w int) relation.Tuple {
	if len(tab.slab) < w {
		tab.slab = make([]value.Value, max(2*cap(tab.slab), w))
	}
	row := tab.slab[:w:w]
	tab.slab = tab.slab[w:]
	return row
}

// Lookup extends each row of in with the row of the nested collection its
// correlation values select: one row per row of in, whatever the inner
// cardinality, and none only when an aggregate predicate fails the
// group. A value without a group, and a NULL one, read the empty group's
// row, which comes from the conventions. The execution's first probe
// builds every group at once; an evaluation error stays with the group
// whose tuple raised it and fails the execution when a row reads that
// group.
func Lookup(in Node, spec LookupSpec) Node {
	n := &lookupNode{input: in, LookupSpec: spec}
	n.schema = slices.Clone(in.Schema())
	for _, a := range spec.Attrs {
		n.schema = append(n.schema, ColID{Rel: spec.Alias, Col: a})
	}
	none := func(func(relation.Tuple, int) bool) {}
	for g := range exec.GroupAggregate(none, nil, n.execAggs(), spec.Conv, nil) {
		n.empty = n.rowOf(append(make(relation.Tuple, len(spec.Keys)), g...), &runCtx{}, &lookupTable{})
	}
	return n
}

func (n *lookupNode) Schema() []ColID { return n.schema }

// execAggs is the aggregate list in exec.GroupAggregate's terms over the
// row [keys..., aggregate inputs...].
func (n *lookupNode) execAggs() []exec.Agg {
	aggs := make([]exec.Agg, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = exec.Agg{Func: a.spec.fn, Col: len(n.Keys) + i}
	}
	return aggs
}

// rowOf turns the group row g into the collection's head tuple, which it
// cuts from tab.
func (n *lookupNode) rowOf(g relation.Tuple, ctx *runCtx, tab *lookupTable) groupRow {
	if !holdsAll(n.Having, g, ctx) {
		err := ctx.err
		ctx.err = nil
		return groupRow{err: err}
	}
	row := tab.cut(len(n.Head))
	for i, h := range n.Head {
		row[i] = h.fn(g, ctx)
	}
	if err := ctx.err; err != nil {
		ctx.err = nil
		return groupRow{err: err}
	}
	return groupRow{row: row}
}

// admits reports whether correlation values can match a group: NULL
// equals nothing.
func admits(vals relation.Tuple) bool { return !slices.ContainsFunc(vals, value.Value.IsNull) }

// slot returns the slot of the group whose values are Equal to vals,
// whose hash is h, or -1.
func (tab *lookupTable) slot(vals relation.Tuple, h uint64) int {
	ch := tab.chains.Chain(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if tab.keys[s].Equal(vals) {
			return s
		}
	}
	return -1
}

// set stores g for the group keys, whose hash is h, unless its group has
// a row already and keep is set.
func (tab *lookupTable) set(keys relation.Tuple, h uint64, g groupRow, keep bool) {
	ch, p := tab.chains.Find(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if tab.keys[s].Equal(keys) {
			if !keep {
				tab.rows[s] = g
			}
			return
		}
	}
	tab.keys, tab.rows = append(tab.keys, keys), append(tab.rows, g)
	tab.chains.AddAt(h, p)
}

// build runs the inner scope once into its groups. An error evaluating
// the inner keys fails the execution; any other stays with its group.
func (n *lookupNode) build(ctx *runCtx) *lookupTable {
	tab := &lookupTable{}
	if size := n.hint.Size(); size > 0 {
		tab.keys, tab.rows = make([]relation.Tuple, 0, size), make([]groupRow, 0, size)
		tab.chains.Reserve(size)
		tab.slab = make([]value.Value, size*len(n.Head))
	}
	nk := len(n.Keys)
	pre := func(yield func(relation.Tuple, int) bool) {
		// GroupAggregate copies key values and folds aggregate inputs
		// immediately, so the scratch row is reusable.
		out := make(relation.Tuple, nk+len(n.Aggs))
		for t, m := range n.Inner.Run(ctx) {
			if !ctx.poll() {
				return
			}
			pass := holdsAll(n.Where, t, ctx)
			bad := ctx.err
			ctx.err = nil
			if !pass && bad == nil {
				continue
			}
			for i, k := range n.Keys {
				out[i] = k.fn(t, ctx)
			}
			if ctx.err != nil {
				return
			}
			for i := 0; i < len(n.Aggs) && bad == nil; i++ {
				a := &n.Aggs[i].spec
				v := a.arg(t, ctx)
				if bad, ctx.err = ctx.err, nil; bad == nil && a.numeric && !v.IsNull() && !v.IsNumeric() {
					bad = fmt.Errorf("%s over non-numeric value %v", a.name, v)
				}
				out[nk+i] = v
			}
			if bad != nil {
				// The group of a tuple that failed keeps the error.
				if keys := out[:nk]; admits(keys) {
					tab.set(keys.Clone(), keys.Hash(), groupRow{err: bad}, false)
				}
				continue
			}
			if !yield(out, m) {
				return
			}
		}
	}
	for g := range exec.GroupAggregate(pre, identity(nk), n.execAggs(), n.Conv, &n.hint) {
		if ctx.err != nil {
			break
		}
		// γ has consumed its whole input by now: a key already present is
		// a group one of whose tuples failed, and that error stands.
		if keys := g[:nk:nk]; admits(keys) {
			tab.set(keys, keys.Hash(), n.rowOf(g, ctx, tab), true)
		}
	}
	return tab
}

// identity is [0, n).
func identity(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func (n *lookupNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, func(yield func(relation.Tuple, int) bool) {
		var op *trace.Op
		if ctx.trace != nil {
			op = ctx.trace.Op(n)
		}
		vals := make(relation.Tuple, len(n.Probe))
		var out relation.Tuple
		for t, m := range n.input.Run(ctx) {
			if !ctx.poll() {
				return
			}
			tab := ctx.lookups[n]
			if tab == nil {
				if tab = n.build(ctx); ctx.err != nil {
					return
				}
				if ctx.lookups == nil {
					ctx.lookups = map[*lookupNode]*lookupTable{}
				}
				ctx.lookups[n] = tab
				if op != nil {
					op.BuildRows = int64(len(tab.rows))
				}
			}
			for i, p := range n.Probe {
				vals[i] = p.fn(t, ctx)
			}
			if ctx.err != nil {
				return
			}
			g, hit := n.empty, false
			if admits(vals) {
				if s := tab.slot(vals, vals.Hash()); s >= 0 {
					g, hit = tab.rows[s], true
				}
			}
			if op != nil {
				if hit {
					op.ProbeHits++
				} else {
					op.ProbeMisses++
				}
			}
			if g.err != nil {
				ctx.fail(fmt.Errorf("%s: %w", n.Name, g.err))
				return
			}
			if g.row == nil {
				continue
			}
			out = append(append(out[:0], t...), g.row...)
			if !yield(out, m) {
				return
			}
		}
	})
}

func (n *lookupNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = a.spec.str
	}
	empty := "none"
	switch {
	case n.empty.err != nil:
		empty = "error"
	case n.empty.row != nil:
		vals := make([]string, len(n.empty.row))
		for i, x := range n.empty.row {
			vals[i] = x.String()
		}
		empty = "{" + strings.Join(vals, ", ") + "}"
	}
	fmt.Fprintf(b, "GroupLookup %s [%s] keys(%s) aggs=[%s] empty=%s", n.Name, n.Alias,
		strings.Join(n.Strs, ", "), strings.Join(aggs, ", "), empty)
	if len(n.Where) > 0 {
		fmt.Fprintf(b, " where(%s)", condStr(n.Where))
	}
	if tr != nil {
		if op := tr.Lookup(n); op == nil {
			b.WriteString(" (never executed)")
		} else {
			fmt.Fprintf(b, " (groups=%d probes=%d misses=%d)", op.BuildRows, op.ProbeHits+op.ProbeMisses, op.ProbeMisses)
		}
	}
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
	n.Inner.writeExplain(b, depth+1, tr)
	for _, c := range n.Where {
		if c.probe != nil {
			c.probe.writeExplain(b, depth+1, tr)
		}
	}
}
