// Package plan is the tuple-level query planner: it compiles SQL
// SELECT/UNION blocks (internal/sql) — FROM join trees, WHERE with
// [NOT] EXISTS and [NOT] IN subqueries, GROUP BY / HAVING, DISTINCT —
// into trees of the streaming physical operators in internal/exec,
// instead of the per-row environment enumeration the reference evaluator
// uses. Every plan renders an EXPLAIN-style string (golden-testable), and
// the compiled fragment is differentially verified byte-identical against
// the enumeration path over the qgen corpus. Queries outside the fragment
// fail compilation with ErrNotPlannable and callers fall back to
// enumeration, so planning is always semantics-preserving.
//
// internal/eval lowers ARC quantifier scopes onto the same operators
// through the builders of arc.go (see eval.ExplainCollection). A SQL
// subquery conjunct and an ARC ∃ are one operator: an existence probe of
// the row a filter tests (Probe), whose inner scope begins with that row
// (Outer).
package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// ErrNotPlannable marks queries outside the compiled fragment; callers
// fall back to the enumeration evaluator (which also owns user-facing
// error reporting for genuinely invalid queries).
var ErrNotPlannable = errors.New("not plannable")

// notPlannable builds a wrapped ErrNotPlannable with a reason.
func notPlannable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotPlannable, fmt.Sprintf(format, args...))
}

// ColID identifies one column of an intermediate schema: the binding
// alias and column name, or a computed column with an empty Rel.
type ColID struct {
	Rel, Col string
}

// String renders "rel.col" or the bare column name.
func (c ColID) String() string {
	if c.Rel == "" {
		return c.Col
	}
	return c.Rel + "." + c.Col
}

// runCtx carries runtime state through one plan execution: the first
// error raised by a compiled expression aborts the run. All mutable
// execution state lives here — the relation map the scans read, bound
// parameter values, the rotating fixpoint relations, and the
// per-execution build-side cache — so a compiled Plan itself is immutable
// and any number of sessions can run the same plan concurrently, each on
// its own snapshot.
type runCtx struct {
	err    error
	rels   map[string]*relation.Relation // scans resolve their relation by name here
	params []value.Value
	// check, when non-nil, is polled in the pull loop (every pollEvery
	// rows through guard) and per fixpoint round; a non-nil return aborts
	// the execution. Context cancellation arrives through it.
	check    func() error
	checkCnt uint
	// handles maps fixpoint handles to their current relations for THIS
	// execution: the materialized CTE results and, inside a recursive
	// step, the rotating delta.
	handles map[*fixpoint.Handle]*relation.Relation
	// builds caches hash-join build sides that cannot change within one
	// execution (no rotating delta below them), so a recursive step
	// re-executed every round builds nothing: its delta streams and
	// probes tables built in the first round.
	builds map[*hashJoinNode]*exec.HashTable
	// lookups holds every grouped lookup's groups (Lookup), probes every
	// existence probe's state (probeRun), each made by its first use.
	lookups map[*lookupNode]*lookupTable
	probes  []*probeRun
	// outer is the row an existence probe runs its inner scope from
	// (Outer), while it runs.
	outer relation.Tuple
	// trace, when non-nil, collects per-operator counters and timings for
	// this execution (EXPLAIN ANALYZE). nil disables every
	// instrumentation site, so an untraced run pays nothing per row.
	trace *trace.Trace
}

// fail records the first runtime error.
func (c *runCtx) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// pollEvery is how many guarded rows pass between cancellation checks.
const pollEvery = 64

// poll reports whether execution may continue, polling the cancellation
// check every pollEvery calls.
func (c *runCtx) poll() bool {
	if c.err != nil {
		return false
	}
	if c.check == nil {
		return true
	}
	c.checkCnt++
	if c.checkCnt%pollEvery == 0 {
		if err := c.check(); err != nil {
			c.fail(err)
			return false
		}
	}
	return true
}

// unpolled returns how many more rows poll lets pass before the row at
// which it next calls the check.
func (c *runCtx) unpolled() int {
	if c.check == nil {
		return math.MaxInt
	}
	return pollEvery - 1 - int(c.checkCnt%pollEvery)
}

// pass counts n rows, no more than unpolled allows, as n calls of poll
// would count them.
func (c *runCtx) pass(n int) {
	if c.check != nil {
		c.checkCnt += uint(n)
	}
}

// param returns the bound value of 0-based parameter i.
func (c *runCtx) param(i int) value.Value {
	if i < len(c.params) {
		return c.params[i]
	}
	c.fail(fmt.Errorf("parameter $%d not bound (%d arguments)", i+1, len(c.params)))
	return value.Null()
}

// handleRel reads the execution-local relation of a fixpoint handle.
func (c *runCtx) handleRel(h *fixpoint.Handle) *relation.Relation {
	return c.handles[h]
}

// setHandle retargets a fixpoint handle for this execution. A probe's
// inner stream set up before, and its answers, may hold the old relation,
// so the probe forgets them.
func (c *runCtx) setHandle(h *fixpoint.Handle, rel *relation.Relation) {
	if c.handles == nil {
		c.handles = make(map[*fixpoint.Handle]*relation.Relation)
	}
	c.handles[h] = rel
	for _, r := range c.probes {
		r.forget()
	}
}

// traced wraps a node's output stream with row and time accounting when
// tracing is enabled; with tracing off it returns seq untouched. An
// operator's time runs from the start of its iteration minus the time
// spent inside its consumer's yield — inclusive of its inputs
// (Postgres-style actual time), exclusive of its parents.
func (c *runCtx) traced(n Node, seq exec.Seq) exec.Seq {
	if c.trace == nil {
		return seq
	}
	op := c.trace.Op(n)
	return func(yield func(relation.Tuple, int) bool) {
		start := time.Now()
		var downstream time.Duration
		seq(func(t relation.Tuple, m int) bool {
			op.Rows++
			ys := time.Now()
			ok := yield(t, m)
			downstream += time.Since(ys)
			return ok
		})
		if d := time.Since(start) - downstream; d > 0 {
			op.Nanos += d.Nanoseconds()
		}
	}
}

// exprFn is a compiled scalar expression over one tuple shape. Errors are
// reported through ctx and the result is NULL.
type exprFn func(t relation.Tuple, ctx *runCtx) value.Value

// predFn is a compiled predicate under three-valued logic.
type predFn func(t relation.Tuple, ctx *runCtx) value.TV

// Node is one physical operator of a compiled plan.
type Node interface {
	// Schema lists the output columns.
	Schema() []ColID
	// Run streams the operator's output tuples. Implementations stop
	// early once ctx.err is set.
	Run(ctx *runCtx) exec.Seq
	// writeExplain renders the operator subtree at the given depth. A
	// non-nil tr annotates each line with that execution's actual
	// counters (EXPLAIN ANALYZE); nil renders the plain plan.
	writeExplain(b *strings.Builder, depth int, tr *trace.Trace)
}

// writeStats appends an operator's executed-run annotation: actual rows
// and inclusive time, or a marker when the operator never ran (an input
// cut short by early termination). No-op when tr is nil.
func writeStats(b *strings.Builder, tr *trace.Trace, key any) {
	if tr == nil {
		return
	}
	op := tr.Lookup(key)
	if op == nil {
		b.WriteString(" (never executed)")
		return
	}
	fmt.Fprintf(b, " (rows=%d time=%s)", op.Rows, trace.FormatDuration(op.Nanos))
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// Plan is a compiled query: a physical root plus the output column names
// of the final result relation. A Plan is bound to a schema, not to data:
// scans carry relation names, and every execution names the relation map
// it reads (ExecuteOn, StreamOn). A Plan is immutable after compilation;
// all execution state lives in the per-call runCtx, so one plan may be
// executed by any number of goroutines concurrently (the prepared-
// statement contract).
type Plan struct {
	root    Node
	attrs   []string
	nparams int
	rels    map[string]*relation.Relation // what Compile was given: the default map of ExecuteWith and Stream
}

// Attrs returns the output column names.
func (p *Plan) Attrs() []string { return p.attrs }

// NumParams returns the number of $n placeholders the plan binds at
// execution time (the largest index used).
func (p *Plan) NumParams() int { return p.nparams }

// Explain renders the plan tree, one operator per line.
func (p *Plan) Explain() string { return p.ExplainAt(0, nil) }

// ExplainAnalyze renders the plan annotated with the actual rows,
// probe/build counters, per-round fixpoint deltas, and timings of one
// executed run — the trace a drained StreamTraced execution filled.
func (p *Plan) ExplainAnalyze(tr *trace.Trace) string { return p.ExplainAt(0, tr) }

// ExecuteWith is ExecuteOn over the relations the plan was compiled
// against.
func (p *Plan) ExecuteWith(params []value.Value, check func() error) (*relation.Relation, error) {
	return p.ExecuteOn(p.rels, params, check)
}

// ExecuteOn runs the plan on rels with bound parameter values and an
// optional cancellation check, materializing the result relation (named
// "result", like the reference evaluator's output). The point-lookup
// shape — a pure column projection directly over a (probed) scan — runs
// on a dedicated loop with no operator composition, so a prepared point
// query costs little more than the hash probe itself. A WITH whose body
// streams one CTE's rows as they are hands that CTE's relation over,
// renamed, instead of copying it.
func (p *Plan) ExecuteOn(rels map[string]*relation.Relation, params []value.Value, check func() error) (*relation.Relation, error) {
	ctx := &runCtx{rels: rels, params: params, check: check}
	switch root := p.root.(type) {
	case *projectNode:
		if sn, ok := root.input.(*scanNode); ok && root.srcCols != nil && sn.rng == nil {
			return p.executePoint(ctx, root, sn)
		}
	case *withNode:
		if cn := root.passedThrough(ctx); cn != nil {
			if err := root.materialize(ctx); err != nil {
				return nil, err
			}
			return ctx.handleRel(cn.handle).Rename("result", p.attrs), nil
		}
	}
	out := relation.New("result", p.attrs...)
	for t, m := range p.root.Run(ctx) {
		if !ctx.poll() {
			break
		}
		out.InsertMult(t, m)
	}
	if ctx.err != nil {
		return nil, ctx.err
	}
	return out, nil
}

// executePoint is the fast path for Project(columns) over Scan: probe,
// project, insert — one loop, each row projected into one reused scratch
// tuple whose values the result copies.
func (p *Plan) executePoint(ctx *runCtx, pn *projectNode, sn *scanNode) (*relation.Relation, error) {
	out := relation.New("result", p.attrs...)
	row := make(relation.Tuple, len(pn.srcCols))
	emit := func(t relation.Tuple, m int) bool {
		if !ctx.poll() {
			return false
		}
		for i, c := range pn.srcCols {
			row[i] = t[c]
		}
		out.InsertMult(row, m)
		return true
	}
	rel := sn.rel(ctx)
	if rel == nil {
		return nil, ctx.err
	}
	if len(sn.probes) == 0 {
		rel.EachWhile(emit)
	} else {
		cols, vals, null := sn.resolveProbes(ctx)
		if null {
			return out, ctx.err
		}
		rel.Probe(cols, vals, emit)
	}
	if ctx.err != nil {
		return nil, ctx.err
	}
	return out, nil
}

// Stream is StreamOn, untraced, over the relations the plan was compiled
// against.
func (p *Plan) Stream(params []value.Value, check func() error) (exec.Seq, func() error) {
	return p.StreamOn(p.rels, params, check, nil)
}

// StreamOn starts one streaming execution of the plan on rels with bound
// parameter values: the returned sequence yields result tuples straight
// off the operator tree (no materialization), and the error function
// reports the first execution error once the stream ends (early or not).
// check, when non-nil, is polled in the pull loop and per fixpoint round
// — context cancellation makes the stream end with the check's error. A
// non-nil tr accumulates per-operator counters and timings as the stream
// drains (it rides the per-execution runCtx, so traced and untraced
// executions of one plan run concurrently). The sequence must be
// consumed by a single goroutine and at most once.
func (p *Plan) StreamOn(rels map[string]*relation.Relation, params []value.Value, check func() error, tr *trace.Trace) (exec.Seq, func() error) {
	ctx := &runCtx{rels: rels, params: params, check: check, trace: tr}
	return guard(p.root.Run(ctx), ctx), func() error { return ctx.err }
}

// --- Leaves ---------------------------------------------------------------

// scanProbe is one consumed equality conjunct pushed down onto a scan:
// probe column col with a compile-time literal (param < 0) or the value
// bound to $param+1 at execution time. Key identity is exactly Eq for
// non-NULL values, so the probe is the filter it replaces. Literal probe
// values were validated non-NULL at compile; a NULL parameter yields no
// rows (x = NULL holds for nothing under 3VL).
type scanProbe struct {
	col   int
	val   value.Value
	param int // 0-based parameter index, or -1 for a literal
}

// scanBound is one end of a pushed-down range restriction: a literal
// value (param < 0) or a parameter resolved per execution. An unset
// bound leaves that side of the range open.
type scanBound struct {
	set   bool
	incl  bool
	val   value.Value
	param int // 0-based parameter index, or -1 for a literal
}

// scanRange is a consumed conjunction of ordering conjuncts on one scan
// column (lo <= c AND c < hi, either side optional), served by the
// relation's ordered index instead of a full scan plus filter. The
// ordered probe follows the 3VL Compare contract exactly — NULL column
// values and values incomparable with the bounds never match — so the
// consumed conjuncts are precisely the filters they replace.
type scanRange struct {
	col    int
	lo, hi scanBound
}

// scanNode streams a base relation — known by name and by the attributes
// it was compiled against, found in the execution's relation map —
// optionally restricted by an index probe on constant or parameter
// equality columns pushed down from WHERE, or by a range over the
// relation's ordered index.
type scanNode struct {
	name      string
	alias     string
	schema    []ColID
	probes    []scanProbe
	probeStrs []string
	rng       *scanRange
	rangeStr  string
}

func newScanNode(name string, attrs []string, alias string) *scanNode {
	n := &scanNode{name: name, alias: alias, schema: make([]ColID, 0, len(attrs))}
	for _, a := range attrs {
		n.schema = append(n.schema, ColID{Rel: alias, Col: a})
	}
	return n
}

func (n *scanNode) Schema() []ColID { return n.schema }

// attrIndex is the position of a column of the scanned relation, or -1.
func (n *scanNode) attrIndex(col string) int {
	return slices.IndexFunc(n.schema, func(c ColID) bool { return c.Col == col })
}

// rel resolves the scanned relation in this execution's relation map. A
// map without it (a caller that skipped the schema check) fails the run.
func (n *scanNode) rel(ctx *runCtx) *relation.Relation {
	r := ctx.rels[n.name]
	if r == nil {
		ctx.fail(fmt.Errorf("unknown table %q", n.name))
	}
	return r
}

// emptySeq yields nothing.
func emptySeq(func(relation.Tuple, int) bool) {}

// resolveProbes binds the scan's probes for one execution: the (cols,
// vals) pairs to hash-probe, and whether a NULL binding makes the scan
// empty.
func (n *scanNode) resolveProbes(ctx *runCtx) (cols []int, vals []value.Value, null bool) {
	cols = make([]int, 0, len(n.probes))
	vals = make([]value.Value, 0, len(n.probes))
	for _, pb := range n.probes {
		v := pb.val
		if pb.param >= 0 {
			v = ctx.param(pb.param)
			if v.IsNull() {
				return nil, nil, true
			}
		}
		cols = append(cols, pb.col)
		vals = append(vals, v)
	}
	return cols, vals, false
}

// resolveRange materializes the range bounds for one execution. A set
// bound that resolves to NULL (a NULL parameter) makes the whole scan
// empty: the consumed comparison is Unknown for every row.
func (n *scanNode) resolveRange(ctx *runCtx) (lo, hi value.Value, empty bool) {
	resolve := func(b scanBound) (value.Value, bool) {
		if !b.set {
			return value.Null(), false // unbounded side
		}
		v := b.val
		if b.param >= 0 {
			v = ctx.param(b.param)
		}
		return v, v.IsNull()
	}
	lo, emptyLo := resolve(n.rng.lo)
	hi, emptyHi := resolve(n.rng.hi)
	return lo, hi, emptyLo || emptyHi
}

func (n *scanNode) Run(ctx *runCtx) exec.Seq {
	rel := n.rel(ctx)
	if rel == nil {
		return emptySeq
	}
	if n.rng != nil {
		lo, hi, empty := n.resolveRange(ctx)
		if empty {
			return ctx.traced(n, emptySeq)
		}
		return ctx.traced(n, exec.RangeScan(rel, n.rng.col, lo, hi, n.rng.lo.incl, n.rng.hi.incl))
	}
	if len(n.probes) == 0 {
		return ctx.traced(n, exec.Scan(rel))
	}
	cols, vals, null := n.resolveProbes(ctx)
	if null {
		return ctx.traced(n, emptySeq)
	}
	return ctx.traced(n, exec.Probe(rel, cols, vals))
}

func (n *scanNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	if n.rng != nil {
		b.WriteString("RangeScan ")
	} else {
		b.WriteString("Scan ")
	}
	b.WriteString(n.name)
	if n.alias != n.name {
		b.WriteString(" as ")
		b.WriteString(n.alias)
	}
	if len(n.probeStrs) > 0 {
		fmt.Fprintf(b, " probe(%s)", strings.Join(n.probeStrs, ", "))
	}
	if n.rangeStr != "" {
		b.WriteString(" ")
		b.WriteString(n.rangeStr)
	}
	writeStats(b, tr, n)
	b.WriteString("\n")
}

// valuesNode yields its one row: the empty tuple of the FROM-less SELECT
// source, or an ARC scope's constant (ConstLeaf).
type valuesNode struct {
	row    relation.Tuple
	schema []ColID
}

func (n *valuesNode) Schema() []ColID { return n.schema }

func (n *valuesNode) Run(_ *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		yield(n.row, 1)
	}
}

func (n *valuesNode) writeExplain(b *strings.Builder, depth int, _ *trace.Trace) {
	indent(b, depth)
	b.WriteString("Values (1 row)\n")
}

// derivedNode streams a subquery plan under an alias (a derived table,
// FROM (subquery) AS x). A join above it that builds on it drains it into
// a hash table; it has no index of its own.
type derivedNode struct {
	sub    *Plan
	alias  string
	schema []ColID
}

func newDerivedNode(sub *Plan, alias string) *derivedNode {
	n := &derivedNode{sub: sub, alias: alias}
	for _, a := range sub.attrs {
		n.schema = append(n.schema, ColID{Rel: alias, Col: a})
	}
	return n
}

func (n *derivedNode) Schema() []ColID { return n.schema }

func (n *derivedNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, guard(n.sub.root.Run(ctx), ctx))
}

func (n *derivedNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	fmt.Fprintf(b, "Derived as %s", n.alias)
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.sub.root.writeExplain(b, depth+1, tr)
}

// --- Joins ----------------------------------------------------------------

// joinKind enumerates the physical join flavours.
type joinKind int

const (
	joinInner joinKind = iota
	joinLeft
	joinFull
)

func (k joinKind) String() string {
	switch k {
	case joinInner:
		return "INNER"
	case joinLeft:
		return "LEFT"
	case joinFull:
		return "FULL"
	}
	return "?"
}

// hashJoinNode joins two subtrees: one side is the build (exec.Build) on
// its key columns, the other streams and probes it. Key equality is
// strict (3VL True) and the residual ON predicate is evaluated over the
// concatenated tuple, always left ++ right; LEFT/FULL kinds null-extend
// unmatched rows per SQL outer-join semantics.
//
// An inner or left join whose build side is a plain or probed scan of a
// stored relation probes that relation's own index on the key columns
// plus the scan's probe columns (exec.IndexBuild; EXPLAIN prints
// index(R)): built once per relation version and shared by every
// execution, so the join builds nothing. Any other build side — a full
// join's, a derived table, a CTE, a range scan or a filtered subtree — is
// drained into an exec.HashTable.
//
// The right side builds, except that an inner join whose right subtree
// reads a rotating fixpoint delta and whose left is static builds its
// left: the delta drives the round, streaming and probing the static
// side's index or a table built once per execution, so no round hashes
// the delta or rescans the static side. buildStatic marks a build side
// whose content cannot change within one execution (no rotating fixpoint
// relation below it): its hash table is cached per runCtx and reused
// across fixpoint rounds.
type hashJoinNode struct {
	kind        joinKind
	left, right Node
	leftCols    []int
	rightCols   []int
	keyStrs     []string
	residual    predFn
	residualStr string
	// gap is the number of computed key columns the left rows end with
	// (Join), which the residual, over the rows left ++ right, skips.
	gap         int
	schema      []ColID
	buildLeft   bool
	buildStatic bool
	hint        exec.SizeHint // a hash table build's rows
}

func newHashJoinNode(kind joinKind, left, right Node) *hashJoinNode {
	n := &hashJoinNode{kind: kind, left: left, right: right}
	n.buildLeft = kind == joinInner && readsDelta(right) && subtreeStatic(left)
	build, _, _, _ := n.sides()
	n.buildStatic = subtreeStatic(build)
	n.schema = slices.Concat(left.Schema(), right.Schema())
	return n
}

func (n *hashJoinNode) Schema() []ColID { return n.schema }

// sides returns the build and probe subtrees with their key columns.
func (n *hashJoinNode) sides() (build, probe Node, buildCols, probeCols []int) {
	if n.buildLeft {
		return n.left, n.right, n.leftCols, n.rightCols
	}
	return n.right, n.left, n.rightCols, n.leftCols
}

// indexScan returns the build side's scan when the join probes the
// scanned relation's index, or nil when it builds a hash table.
func (n *hashJoinNode) indexScan() *scanNode {
	build, _, _, _ := n.sides()
	sn, ok := build.(*scanNode)
	if !ok || sn.rng != nil || n.kind == joinFull || len(n.keyStrs) == 0 {
		return nil
	}
	return sn
}

// buildSide returns the join's build side: the scanned relation's index,
// or a hash table, from the per-execution cache when the build subtree is
// static. A NULL parameter on the scan's probe empties the scan, so that
// join builds the empty table. A table is presized by the join's hint.
func (n *hashJoinNode) buildSide(ctx *runCtx) exec.Build {
	build, _, cols, _ := n.sides()
	if sn := n.indexScan(); sn != nil {
		if rel := sn.rel(ctx); rel != nil {
			if fixedCols, fixedVals, null := sn.resolveProbes(ctx); !null {
				b := exec.NewIndexBuild(rel, cols, fixedCols, fixedVals)
				if ctx.trace != nil {
					b.Read = &ctx.trace.Op(sn).Rows
				}
				return b
			}
		}
	}
	if !n.buildStatic {
		return exec.BuildHashTable(build.Run(ctx), cols, len(build.Schema()), &n.hint)
	}
	if ht := ctx.builds[n]; ht != nil {
		return ht
	}
	ht := exec.BuildHashTable(build.Run(ctx), cols, len(build.Schema()), &n.hint)
	if ctx.builds == nil {
		ctx.builds = make(map[*hashJoinNode]*exec.HashTable)
	}
	ctx.builds[n] = ht
	return ht
}

// Run streams the join. A build side that may change within the execution
// (it reads a rotating delta, or the row an existence probe tests) is
// built each time the stream starts, so a stream set up once — a
// recursive step's, a probe's inner scope — reads what its inputs hold
// when it runs; any other is built now.
func (n *hashJoinNode) Run(ctx *runCtx) exec.Seq {
	if n.buildStatic || n.indexScan() != nil {
		return n.join(ctx)
	}
	return func(yield func(relation.Tuple, int) bool) { n.join(ctx)(yield) }
}

// join builds the join's build side and streams the join over it.
func (n *hashJoinNode) join(ctx *runCtx) exec.Seq {
	var op *trace.Op
	var b exec.Build
	if ctx.trace != nil {
		op = ctx.trace.Op(n)
		bs := time.Now()
		b = n.buildSide(ctx)
		op.Nanos += time.Since(bs).Nanoseconds()
		if ht, ok := b.(*exec.HashTable); ok {
			op.BuildRows = int64(ht.Len())
		}
	} else {
		b = n.buildSide(ctx)
	}
	var on func(relation.Tuple) bool
	if n.residual != nil {
		var row relation.Tuple
		nl := len(n.left.Schema()) - n.gap
		if n.gap > 0 {
			row = make(relation.Tuple, len(n.schema)-n.gap)
		}
		on = func(t relation.Tuple) bool {
			if ctx.err != nil {
				return false
			}
			if row != nil {
				copy(row, t[:nl])
				copy(row[nl:], t[nl+n.gap:])
				t = row
			}
			return n.residual(t, ctx).Holds()
		}
	}
	_, probe, _, probeCols := n.sides()
	in := guard(probe.Run(ctx), ctx)
	switch n.kind {
	case joinLeft:
		return ctx.traced(n, exec.OuterHashJoin(in, probeCols, b, on, false, len(n.left.Schema()), op))
	case joinFull:
		return ctx.traced(n, exec.OuterHashJoin(in, probeCols, b, on, true, len(n.left.Schema()), op))
	}
	return ctx.traced(n, exec.EquiJoin(in, probeCols, b, n.buildLeft, on, op))
}

func (n *hashJoinNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	if len(n.keyStrs) == 0 {
		fmt.Fprintf(b, "CrossJoin %s", n.kind)
	} else {
		fmt.Fprintf(b, "HashJoin %s (%s)", n.kind, strings.Join(n.keyStrs, ", "))
	}
	if n.residualStr != "" {
		fmt.Fprintf(b, " residual(%s)", n.residualStr)
	}
	if n.buildLeft {
		b.WriteString(" build(left)")
	}
	sn := n.indexScan()
	if sn != nil {
		fmt.Fprintf(b, " index(%s)", sn.name)
	}
	if tr != nil {
		if op := tr.Lookup(n); op == nil {
			b.WriteString(" (never executed)")
		} else if sn != nil {
			fmt.Fprintf(b, " (rows=%d hits=%d misses=%d time=%s)",
				op.Rows, op.ProbeHits, op.ProbeMisses, trace.FormatDuration(op.Nanos))
		} else {
			fmt.Fprintf(b, " (rows=%d build=%d hits=%d misses=%d time=%s)",
				op.Rows, op.BuildRows, op.ProbeHits, op.ProbeMisses, trace.FormatDuration(op.Nanos))
		}
	}
	b.WriteString("\n")
	n.left.writeExplain(b, depth+1, tr)
	n.right.writeExplain(b, depth+1, tr)
}

// JoinKey is one key of a join: L over the left rows equals R over the
// right rows, strictly (NULL matches nothing).
type JoinKey struct {
	L, R Expr
	Str  string
}

// keyJoin is the join of left and right on keys, in both compilers: a key
// side that is not a column is computed into a column appended to its
// side (extend), which the joined rows keep.
func keyJoin(kind joinKind, left, right Node, keys []JoinKey) *hashJoinNode {
	var lcols, rcols []int
	var strs []string
	var lx, rx []Expr
	for _, k := range keys {
		lcols, rcols = append(lcols, keyCol(k.L, len(left.Schema()), &lx)), append(rcols, keyCol(k.R, len(right.Schema()), &rx))
		strs = append(strs, k.Str)
	}
	n := newHashJoinNode(kind, extend(left, lx), extend(right, rx))
	n.leftCols, n.rightCols, n.keyStrs = lcols, rcols, strs
	return n
}

// keyCol is the column of the rows, width wide, that holds x: the one x
// copies, else one appended to extra computing it.
func keyCol(x Expr, width int, extra *[]Expr) int {
	if x.col > 0 {
		return x.col - 1
	}
	*extra = append(*extra, x)
	return width + len(*extra) - 1
}

// extend appends the columns extra computes to the rows of in.
func extend(in Node, extra []Expr) Node {
	if len(extra) == 0 {
		return in
	}
	schema := in.Schema()
	fns := make([]exprFn, 0, len(schema)+len(extra))
	for i := range schema {
		fns = append(fns, Column(i, "").fn)
	}
	n := newProjectNode(in, nil, nil)
	n.schema = slices.Clone(schema)
	for _, x := range extra {
		fns, n.schema = append(fns, x.fn), append(n.schema, ColID{Col: x.str})
	}
	n.exprs = fns
	return n
}

// guard stops a stream once ctx carries an error, polling the
// cancellation check as rows pass (the operator pull loop's cancellation
// point). Running the guarded stream again allocates nothing.
func guard(in exec.Seq, ctx *runCtx) exec.Seq {
	g := &guarded{in: in, ctx: ctx}
	g.next = g.row
	return g.run
}

// guarded is a guard stream's state.
type guarded struct {
	in          exec.Seq
	ctx         *runCtx
	next, yield func(relation.Tuple, int) bool
}

func (g *guarded) run(yield func(relation.Tuple, int) bool) {
	g.yield = yield
	g.in(g.next)
}

func (g *guarded) row(t relation.Tuple, m int) bool { return g.ctx.poll() && g.yield(t, m) }

// inputs lists a node's input subtrees; ok is false for an operator the
// walkers below do not know.
func inputs(n Node) (kids []Node, ok bool) {
	switch x := n.(type) {
	case *scanNode, *valuesNode, *cteNode:
		return nil, true
	case *derivedNode:
		return []Node{x.sub.root}, true
	case *hashJoinNode:
		return []Node{x.left, x.right}, true
	case *filterNode:
		kids := []Node{x.input}
		for _, p := range x.probes {
			kids = append(kids, p.inner)
		}
		return kids, true
	case *lookupNode:
		return []Node{x.input, x.Inner}, true
	case *projectNode:
		return []Node{x.input}, true
	case *dedupNode:
		return []Node{x.input}, true
	case *groupNode:
		return []Node{x.input}, true
	case *unionNode:
		return x.kids, true
	}
	return nil, false
}

// subtreeStatic reports whether a plan subtree's output is fixed for the
// whole of one execution: scans of base relations, derived tables, CTE
// results (cteNode.static), and pure operators over them. Anything else
// (a rotating delta, a probe's row) or that inputs does not know is
// treated as non-static, which only costs a rebuild. Bound parameters
// are constant per execution, so they do not break staticness.
func subtreeStatic(n Node) bool {
	if c, ok := n.(*cteNode); ok {
		return c.static
	}
	kids, ok := inputs(n)
	if !ok {
		return false
	}
	for _, k := range kids {
		if !subtreeStatic(k) {
			return false
		}
	}
	return true
}

// readsDelta reports whether a plan subtree reads the rotating delta of
// the recursive step being compiled.
func readsDelta(n Node) bool {
	if c, ok := n.(*cteNode); ok {
		return c.delta
	}
	kids, _ := inputs(n)
	for _, k := range kids {
		if readsDelta(k) {
			return true
		}
	}
	return false
}

// --- Tuple-at-a-time operators --------------------------------------------

// filterNode keeps rows whose predicate is True (σ under 3VL). EXPLAIN
// renders the existence probes its predicate runs (Filter) beneath it.
type filterNode struct {
	input  Node
	pred   predFn
	str    string
	probes []*probe
}

func (n *filterNode) Schema() []ColID { return n.input.Schema() }

func (n *filterNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, exec.Filter(guard(n.input.Run(ctx), ctx), func(t relation.Tuple, _ int) bool {
		if ctx.err != nil {
			return false
		}
		return n.pred(t, ctx).Holds()
	}))
}

func (n *filterNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	fmt.Fprintf(b, "Filter (%s)", n.str)
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
	for _, p := range n.probes {
		p.writeExplain(b, depth+1, tr)
	}
}

// projectNode computes the output expressions (π with computation) into
// one tuple per execution (see exec.Seq). srcCols, when non-nil, records
// that every output expression is a plain input-column reference
// (srcCols[i] = input column of output i) — the shape the point-lookup
// fast path in ExecuteOn exploits.
type projectNode struct {
	input    Node
	exprs    []exprFn
	schema   []ColID
	srcCols  []int
	exprStrs []string // when set, EXPLAIN renders each column as name = expression
	copied   []int    // ARC (Project): the input column each output copies, -1 if computed
}

func newProjectNode(input Node, exprs []exprFn, names []string) *projectNode {
	n := &projectNode{input: input, exprs: exprs}
	for _, name := range names {
		n.schema = append(n.schema, ColID{Col: name})
	}
	return n
}

func (n *projectNode) Schema() []ColID { return n.schema }

// Run streams the projection. One whose outputs are the columns of the
// rows its input yields, in order, passes those rows on as they are.
func (n *projectNode) Run(ctx *runCtx) exec.Seq {
	if n.passesThrough(ctx) {
		return ctx.traced(n, n.input.Run(ctx))
	}
	p := &projection{n: n, ctx: ctx, in: n.input.Run(ctx)}
	p.next = p.row
	return ctx.traced(n, p.run)
}

// passesThrough reports whether n outputs exactly the columns of the rows
// its input yields in this execution, in order: the width compared is
// the rows' own (rowWidth), not only the input's schema.
func (n *projectNode) passesThrough(ctx *runCtx) bool {
	cols := n.srcCols
	if cols == nil {
		cols = n.copied
	}
	if len(cols) == 0 || len(cols) != rowWidth(n.input, ctx) {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// rowWidth returns the width of the rows n yields in this execution, or -1
// for an operator whose rows it does not know the width of.
func rowWidth(n Node, ctx *runCtx) int {
	switch x := n.(type) {
	case *scanNode:
		// A scan yields the stored tuples of the relation it finds.
		if r := ctx.rels[x.name]; r != nil {
			return r.Arity()
		}
	case *cteNode:
		// So does a CTE scan, of the relation its query materialized.
		return len(x.schema)
	case *filterNode:
		return rowWidth(x.input, ctx)
	case *dedupNode:
		return rowWidth(x.input, ctx)
	case *projectNode:
		return len(x.exprs)
	case *groupNode:
		return len(x.keys) + len(x.aggs)
	}
	return -1
}

// projection is one execution of a projectNode. Its state lives here, not
// in closures, so the execution allocates no more objects, nor larger
// ones, than a projection that allocated a tuple per row did for one row
// (a point query), and nothing when it runs again.
type projection struct {
	n     *projectNode
	ctx   *runCtx
	in    exec.Seq
	next  func(relation.Tuple, int) bool // row
	yield func(relation.Tuple, int) bool
	out   relation.Tuple // every output row, allocated at the first
}

// run streams the projection: the Seq that Run returns.
func (p *projection) run(yield func(relation.Tuple, int) bool) {
	p.yield = yield
	p.in(p.next)
}

// row computes the output of one input row and yields it.
func (p *projection) row(t relation.Tuple, m int) bool {
	if !p.ctx.poll() {
		return false
	}
	if p.out == nil {
		p.out = make(relation.Tuple, len(p.n.exprs))
	}
	for i, e := range p.n.exprs {
		p.out[i] = e(t, p.ctx)
	}
	return p.ctx.err == nil && p.yield(p.out, m)
}

func (n *projectNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	cols := make([]string, len(n.schema))
	for i, c := range n.schema {
		cols[i] = c.Col
		if n.exprStrs != nil {
			cols[i] += " = " + n.exprStrs[i]
		}
	}
	fmt.Fprintf(b, "Project [%s]", strings.Join(cols, ", "))
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
}

// dedupNode collapses duplicates (DISTINCT / UNION set semantics).
type dedupNode struct {
	input Node
	hint  exec.SizeHint // the distinct rows
}

func (n *dedupNode) Schema() []ColID { return n.input.Schema() }

func (n *dedupNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, exec.Dedup(guard(n.input.Run(ctx), ctx), &n.hint))
}

func (n *dedupNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	b.WriteString("Dedup")
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
}

// unionNode concatenates its inputs (UNION ALL; the set UNION adds a
// dedupNode above).
type unionNode struct {
	kids []Node
}

func (n *unionNode) Schema() []ColID { return n.kids[0].Schema() }

func (n *unionNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, func(yield func(relation.Tuple, int) bool) {
		for _, k := range n.kids {
			for t, m := range k.Run(ctx) {
				if !ctx.poll() {
					return
				}
				if !yield(t, m) {
					return
				}
			}
		}
	})
}

func (n *unionNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	b.WriteString("UnionAll")
	writeStats(b, tr, n)
	b.WriteString("\n")
	for _, k := range n.kids {
		k.writeExplain(b, depth+1, tr)
	}
}

// aggSpec is one aggregate column of a groupNode.
type aggSpec struct {
	fn      exec.AggFunc
	arg     exprFn // nil for count(*)
	col     int    // 1 + the input column arg copies verbatim, 0 for any other
	name    string // surface aggregate name, for error messages
	str     string // rendered form, for EXPLAIN and post-group matching
	numeric bool   // sum/avg: non-null inputs must be numeric
}

// groupNode is γ: it streams its input through exec.GroupAggregate and
// emits [keys..., agg values...] per group. Grouping with no keys emits
// exactly one group even over empty input (implicit grouping). When
// every key and every aggregate argument copies a column of the input,
// γ reads those columns of the input rows in place; otherwise it
// projects each input row to [keys..., agg args...] first.
type groupNode struct {
	input  Node
	keys   []Expr
	aggs   []aggSpec
	conv   convention.Conventions
	schema []ColID
	hint   exec.SizeHint // the groups

	// What GroupAggregate groups by and folds: columns of the input rows
	// when inPlace, of the projected rows otherwise (layout sets them).
	inPlace bool
	keyCols []int
	gaggs   []exec.Agg
	// nullEmpty: a group whose key holds a NULL folds no row
	// (GroupNullEmpty).
	nullEmpty bool
}

// layout chooses how γ reads its input, once its keys and aggregates
// are known.
func (n *groupNode) layout() {
	n.inPlace = !slices.ContainsFunc(n.keys, func(k Expr) bool { return k.col == 0 }) &&
		!slices.ContainsFunc(n.aggs, func(a aggSpec) bool { return a.arg != nil && a.col == 0 })
	n.keyCols, n.gaggs = identity(len(n.keys)), make([]exec.Agg, len(n.aggs))
	for i, a := range n.aggs {
		n.gaggs[i] = exec.Agg{Func: a.fn, Col: len(n.keys) + i}
	}
	if !n.inPlace {
		return
	}
	for i, k := range n.keys {
		n.keyCols[i] = k.col - 1
	}
	for i, a := range n.aggs {
		n.gaggs[i].Col = a.col - 1 // count(*) reads none: -1
	}
}

func (n *groupNode) Schema() []ColID { return n.schema }

func (n *groupNode) Run(ctx *runCtx) exec.Seq {
	if sn, ok := n.input.(*scanNode); ok && n.inPlace && len(n.keyCols) > 0 && len(sn.probes) == 0 && sn.rng == nil {
		rel := sn.rel(ctx)
		if rel == nil {
			return ctx.traced(n, emptySeq)
		}
		var op *trace.Op
		if ctx.trace != nil {
			op = ctx.trace.Op(sn)
		}
		return ctx.traced(n, n.numbered(ctx, rel, op))
	}
	var in exec.Seq
	if n.inPlace {
		in = n.checked(ctx)
	} else {
		in = n.projected(ctx)
	}
	if n.nullEmpty {
		return ctx.traced(n, exec.GroupAggregateNullEmpty(in, n.keyCols, n.gaggs, n.conv, &n.hint))
	}
	return ctx.traced(n, exec.GroupAggregate(in, n.keyCols, n.gaggs, n.conv, &n.hint))
}

// checked is the input rows as they are, failing the execution on a
// non-numeric input of a sum or avg.
func (n *groupNode) checked(ctx *runCtx) exec.Seq {
	in := guard(n.input.Run(ctx), ctx)
	if !slices.ContainsFunc(n.aggs, func(a aggSpec) bool { return a.numeric }) {
		return in
	}
	return func(yield func(relation.Tuple, int) bool) {
		for t, m := range in {
			if !n.nullKeyed(t, n.keyCols) && !n.numericOK(t, ctx) || !yield(t, m) {
				return
			}
		}
	}
}

// nullKeyed reports whether γ folds nothing of the row t, whose key is at
// cols: under nullEmpty, a row whose key holds a NULL, none of whose
// aggregate inputs is read.
func (n *groupNode) nullKeyed(t relation.Tuple, cols []int) bool {
	return n.nullEmpty && slices.ContainsFunc(cols, func(c int) bool { return t[c].IsNull() })
}

// numericOK reports whether every sum and avg input of the row t is NULL
// or numeric, failing the execution if one is not.
func (n *groupNode) numericOK(t relation.Tuple, ctx *runCtx) bool {
	for i, a := range n.aggs {
		if !a.numeric {
			continue
		}
		if v := t[n.gaggs[i].Col]; !v.IsNull() && !v.IsNumeric() {
			ctx.fail(fmt.Errorf("%s over non-numeric value %v", a.name, v))
			return false
		}
	}
	return true
}

// numbered is γ over a plain scan of the stored relation rel, read with
// the group numbers rel keeps on the key columns (relation.Numbering):
// it folds each run of rows in place, a stretch between two polls at a
// time, where the hashing path hashes every row and probes a table. It
// streams what the hashing path would — the same groups, rows and order —
// polling at the rows guard polls at and failing at the row checked fails
// at, and, when op is not nil, counting the scan's rows in op and timing
// them as the scan's own Run would: less building the numbering and
// folding the rows.
func (n *groupNode) numbered(ctx *runCtx, rel *relation.Relation, op *trace.Op) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		nb := rel.Numbering(n.keyCols)
		gs := exec.NewNumbered(nb.Groups(), n.keyCols, n.gaggs, n.conv, n.nullEmpty)
		var start time.Time
		var folding time.Duration
		if op != nil {
			start = time.Now()
		}
		rows := 0 // the rows the scan yielded
	runs:
		for _, run := range nb.Runs() {
			for lo, end := 0, run.Len(); lo < end; {
				if run.Dead(lo) {
					lo++
					continue
				}
				// The row at lo is polled; the ones after it, up to the
				// next that poll checks at, pass it unchecked.
				rows++
				if !ctx.poll() {
					break runs
				}
				hi, passed := run.Skip(lo+1, ctx.unpolled())
				var fs time.Time
				if op != nil {
					fs = time.Now()
				}
				bad := gs.Fold(&run, lo, hi)
				if op != nil {
					folding += time.Since(fs)
				}
				if bad >= 0 {
					n.numericOK(run.Tuple(bad), ctx) // fails with bad's error
					for s := lo + 1; s <= bad; s++ {
						if !run.Dead(s) {
							rows++ // the scan yielded the rows through bad
						}
					}
					break runs
				}
				ctx.pass(passed)
				rows += passed
				lo = hi
			}
		}
		if op != nil {
			op.Rows += int64(rows)
			if d := time.Since(start) - folding; d > 0 {
				op.Nanos += d.Nanoseconds()
			}
		}
		gs.Emit(yield, &n.hint)
	}
}

// projected is each input row projected to [keys..., agg args...].
func (n *groupNode) projected(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		// GroupAggregate copies key values and folds aggregate inputs
		// immediately, so the projection scratch tuple is reusable.
		scratch := make(relation.Tuple, 0, len(n.keys)+len(n.aggs))
		for t, m := range n.input.Run(ctx) {
			if !ctx.poll() {
				return
			}
			out := scratch[:0]
			for _, k := range n.keys {
				out = append(out, k.fn(t, ctx))
			}
			skip := n.nullKeyed(out, n.keyCols)
			for _, a := range n.aggs {
				if a.arg == nil || skip {
					out = append(out, value.Null())
					continue
				}
				v := a.arg(t, ctx)
				if a.numeric && !v.IsNull() && !v.IsNumeric() {
					ctx.fail(fmt.Errorf("%s over non-numeric value %v", a.name, v))
				}
				out = append(out, v)
			}
			if ctx.err != nil {
				return
			}
			if !yield(out, m) {
				return
			}
		}
	}
}

func (n *groupNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	keyStrs := make([]string, len(n.keys))
	for i, k := range n.keys {
		keyStrs[i] = k.str
	}
	aggStrs := make([]string, len(n.aggs))
	for i, a := range n.aggs {
		aggStrs[i] = a.str
	}
	fmt.Fprintf(b, "GroupAggregate keys=[%s] aggs=[%s]",
		strings.Join(keyStrs, ", "), strings.Join(aggStrs, ", "))
	if n.nullEmpty {
		b.WriteString(" null-keyed=empty")
	}
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
}
