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
// operators only a scope needs. A scope is a left-deep chain of inner
// joins over its leaves (Join): scans that probe a stored relation's
// index, a recursive occurrence read through a fixpoint.Handle, constants.
// Its other predicates hold on the complete row (Filter); then come γ
// (Group) and the head (Project). Two operators nest one scope in
// another, chosen from the scope's shape alone: the γ∅ grouped lookup
// (Lookup) and the ∃/¬∃ existence probe (Probe). docs/INVARIANTS.md, "The
// decorrelation contract", states what they guarantee.

// Expr is a compiled scalar term over the row of the node it is given to.
type Expr struct {
	fn  exprFn
	str string
}

// Column reads column i of the row.
func Column(i int, str string) Expr {
	return Expr{func(t relation.Tuple, _ *runCtx) value.Value { return t[i] }, str}
}

// Param reads the value bound to 0-based parameter i.
func Param(i int, str string) Expr {
	return Expr{func(_ relation.Tuple, ctx *runCtx) value.Value { return ctx.param(i) }, str}
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
		return Expr{func(relation.Tuple, *runCtx) value.Value { return v }, x.String()}, true
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
		return Expr{arith(arcOps[x.Op], str, l.fn, r.fn), str}, okL && okR
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
	n := &filterNode{input: in, str: condStr(conds)}
	for _, c := range conds {
		if c.probe != nil {
			n.probes = append(n.probes, c.probe)
		}
	}
	n.pred = func(t relation.Tuple, ctx *runCtx) value.TV {
		return value.TVFromBool(holdsAll(conds, t, ctx))
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

// Join is the inner join of left and right on leftCols = rightCols, a
// cross join without keys. Its right side is built; a scan of a stored
// relation builds nothing and is probed through its index.
func Join(left, right Node, leftCols, rightCols []int, keyStrs []string) Node {
	n := newHashJoinNode(joinInner, left, right)
	n.leftCols, n.rightCols, n.keyStrs = leftCols, rightCols, keyStrs
	return n
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
	return Aggregate{aggSpec{fn: f.fn, arg: arg.fn, name: a.Func.String(), str: a.String(), numeric: f.numeric}}
}

// Group is γ over in: one row [keys..., aggregates...] per group, one
// group over no rows without keys.
func Group(in Node, keys []Expr, aggs []Aggregate, conv convention.Conventions) Node {
	g := &groupNode{input: in, conv: conv}
	for _, k := range keys {
		g.keys = append(g.keys, k.fn)
		g.keyStrs = append(g.keyStrs, k.str)
	}
	for _, a := range aggs {
		g.aggs = append(g.aggs, a.spec)
	}
	return g
}

// Project computes exprs into a row with one column per name.
func Project(in Node, exprs []Expr, names []string) Node {
	fns := make([]exprFn, len(exprs))
	strs := make([]string, len(exprs))
	for i, x := range exprs {
		fns[i], strs[i] = x.fn, x.str
	}
	n := newProjectNode(in, fns, names)
	n.exprStrs = strs
	return n
}

// NewPlan is a plan over root for Run, reading nparams parameters.
func NewPlan(root Node, attrs []string, nparams int) *Plan {
	return &Plan{root: root, attrs: attrs, nparams: nparams}
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
	return &Run{runCtx{rels: rels, params: params, check: check, trace: tr, arc: &arcState{}}}
}

// Bind points h at rel for the streams that follow.
func (r *Run) Bind(h *fixpoint.Handle, rel *relation.Relation) { r.ctx.setHandle(h, rel) }

// Stream streams p's rows. A yielded row is valid until yield returns.
// The root of an ARC scope's plan is its head's projection, which polls
// the execution's check and stops at its first error, so nothing wraps
// it.
func (r *Run) Stream(p *Plan) exec.Seq { return p.root.Run(&r.ctx) }

// Err is the execution's first error.
func (r *Run) Err() error { return r.ctx.err }

// arcState is one execution's state of the operators only ARC scopes run.
type arcState struct {
	// lookups holds the groups of every grouped lookup probed so far
	// (Lookup), built by its first probe.
	lookups map[*lookupNode]*lookupTable
	// outer is the row an existence probe runs its inner scope from
	// (Outer), while it runs.
	outer relation.Tuple
}

// outerNode yields the row of the running Probe (Outer).
type outerNode struct{ schema []ColID }

func (n *outerNode) Schema() []ColID { return n.schema }

func (n *outerNode) Run(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) { yield(ctx.arc.outer, 1) }
}

func (n *outerNode) writeExplain(b *strings.Builder, depth int, _ *trace.Trace) {
	indent(b, depth)
	b.WriteString("Outer\n")
}

// probe is an ∃ (negated, ¬∃) subformula of a scope. Its inner scope
// begins with the enclosing row (Outer): each test runs it from that row,
// probing the indexes of its leaves, and stops at the first match.
type probe struct {
	inner Node
	neg   bool
	label string
}

// Probe is the existence probe of inner, negated by neg, as a condition
// on the enclosing row: two-valued, as enumeration tests it. label names
// the subformula in EXPLAIN.
func Probe(inner Node, neg bool, label string) Cond {
	p := &probe{inner: inner, neg: neg, label: label}
	if neg {
		label = "¬" + label
	}
	return Cond{fn: p.holds, str: label, probe: p}
}

func (p *probe) holds(t relation.Tuple, ctx *runCtx) value.TV {
	saved := ctx.arc.outer
	ctx.arc.outer = t
	found := false
	for range p.inner.Run(ctx) {
		found = true
		break
	}
	ctx.arc.outer = saved
	if ctx.trace != nil {
		op := ctx.trace.Op(p)
		if found {
			op.ProbeHits++
		} else {
			op.ProbeMisses++
		}
	}
	return value.TVFromBool(found != p.neg)
}

func (p *probe) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	name := "SemiProbe"
	if p.neg {
		name = "AntiProbe"
	}
	fmt.Fprintf(b, "%s %s", name, p.label)
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
}

// lookupTable is one execution's groups of a lookupNode: the correlation
// values and row of each, chained by the hash of the values.
type lookupTable struct {
	keys   []relation.Tuple
	rows   []groupRow
	chains relation.Chains // slot i is keys[i] and rows[i]
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
	for g := range exec.GroupAggregate(none, nil, n.execAggs(), spec.Conv) {
		n.empty = n.rowOf(append(make(relation.Tuple, len(spec.Keys)), g...), &runCtx{})
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

// rowOf turns the group row g into the collection's head tuple.
func (n *lookupNode) rowOf(g relation.Tuple, ctx *runCtx) groupRow {
	if !holdsAll(n.Having, g, ctx) {
		err := ctx.err
		ctx.err = nil
		return groupRow{err: err}
	}
	row := make(relation.Tuple, len(n.Head))
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
	if s := tab.slot(keys, h); s >= 0 {
		if !keep {
			tab.rows[s] = g
		}
		return
	}
	tab.keys, tab.rows = append(tab.keys, keys), append(tab.rows, g)
	tab.chains.Add(h)
}

// build runs the inner scope once into its groups. An error evaluating
// the inner keys fails the execution; any other stays with its group.
func (n *lookupNode) build(ctx *runCtx) *lookupTable {
	tab := &lookupTable{}
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
	for g := range exec.GroupAggregate(pre, identity(nk), n.execAggs(), n.Conv) {
		if ctx.err != nil {
			break
		}
		// γ has consumed its whole input by now: a key already present is
		// a group one of whose tuples failed, and that error stands.
		if keys := g[:nk:nk]; admits(keys) {
			tab.set(keys, keys.Hash(), n.rowOf(g, ctx), true)
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
			tab := ctx.arc.lookups[n]
			if tab == nil {
				if tab = n.build(ctx); ctx.err != nil {
					return
				}
				if ctx.arc.lookups == nil {
					ctx.arc.lookups = map[*lookupNode]*lookupTable{}
				}
				ctx.arc.lookups[n] = tab
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
