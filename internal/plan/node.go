// Package plan is the tuple-level query planner: it compiles SQL
// SELECT/UNION blocks (internal/sql) — FROM join trees, WHERE with
// decorrelatable IN/EXISTS/NOT IN subqueries, GROUP BY / HAVING, DISTINCT
// — into trees of the streaming physical operators in internal/exec,
// instead of the per-row environment enumeration the reference evaluator
// uses. Every plan renders an EXPLAIN-style string (golden-testable), and
// the compiled fragment is differentially verified byte-identical against
// the enumeration path over the qgen corpus. Queries outside the fragment
// fail compilation with ErrNotPlannable and callers fall back to
// enumeration, so planning is always semantics-preserving.
//
// internal/eval lowers ARC quantifier scopes onto the same operators
// through the builders of arc.go (see eval.ExplainCollection).
package plan

import (
	"errors"
	"fmt"
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
	// arc is the state of the operators only ARC scopes run (NewRun).
	arc *arcState
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

// setHandle retargets a fixpoint handle for this execution.
func (c *runCtx) setHandle(h *fixpoint.Handle, rel *relation.Relation) {
	if c.handles == nil {
		c.handles = make(map[*fixpoint.Handle]*relation.Relation)
	}
	c.handles[h] = rel
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
// query costs little more than the hash probe itself.
func (p *Plan) ExecuteOn(rels map[string]*relation.Relation, params []value.Value, check func() error) (*relation.Relation, error) {
	ctx := &runCtx{rels: rels, params: params, check: check}
	if pn, ok := p.root.(*projectNode); ok && pn.srcCols != nil {
		if sn, ok := pn.input.(*scanNode); ok && sn.rng == nil {
			return p.executePoint(ctx, pn, sn)
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
// project, insert — one loop, fresh tuples handed to the result with
// ownership (no re-clone).
func (p *Plan) executePoint(ctx *runCtx, pn *projectNode, sn *scanNode) (*relation.Relation, error) {
	out := relation.New("result", p.attrs...)
	emit := func(t relation.Tuple, m int) bool {
		if !ctx.poll() {
			return false
		}
		row := make(relation.Tuple, len(pn.srcCols))
		for i, c := range pn.srcCols {
			row[i] = t[c]
		}
		out.InsertOwned(row, m)
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

// run streams the plan root (used when a plan is a subtree of another —
// derived tables and semi-join build sides share the enclosing ctx).
func (p *Plan) run(ctx *runCtx) exec.Seq {
	return p.root.Run(ctx)
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
	n := &scanNode{name: name, alias: alias}
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
	return ctx.traced(n, func(yield func(relation.Tuple, int) bool) {
		for t, m := range n.sub.run(ctx) {
			if !ctx.poll() {
				return
			}
			if !yield(t, m) {
				return
			}
		}
	})
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
	schema      []ColID
	buildLeft   bool
	buildStatic bool
}

func newHashJoinNode(kind joinKind, left, right Node) *hashJoinNode {
	n := &hashJoinNode{kind: kind, left: left, right: right}
	n.buildLeft = kind == joinInner && readsDelta(right) && subtreeStatic(left)
	build, _, _, _ := n.sides()
	n.buildStatic = subtreeStatic(build)
	n.schema = append(append([]ColID(nil), left.Schema()...), right.Schema()...)
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
// join builds the empty table.
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
		return exec.BuildHashTable(build.Run(ctx), cols, len(build.Schema()))
	}
	if ht := ctx.builds[n]; ht != nil {
		return ht
	}
	ht := exec.BuildHashTable(build.Run(ctx), cols, len(build.Schema()))
	if ctx.builds == nil {
		ctx.builds = make(map[*hashJoinNode]*exec.HashTable)
	}
	ctx.builds[n] = ht
	return ht
}

func (n *hashJoinNode) Run(ctx *runCtx) exec.Seq {
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
		on = func(t relation.Tuple) bool {
			if ctx.err != nil {
				return false
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

// guard stops a stream once ctx carries an error, polling the
// cancellation check as rows pass (the operator pull loop's cancellation
// point).
func guard(in exec.Seq, ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		for t, m := range in {
			if !ctx.poll() {
				return
			}
			if !yield(t, m) {
				return
			}
		}
	}
}

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
	case *semiJoinNode:
		return []Node{x.input, x.sub.root}, true
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
// whole of one execution: scans of base relations, derived tables, and
// pure operators over them. Anything that reads a fixpoint handle
// (CTE results and rotating deltas) or that inputs does not know is
// treated as non-static, which only costs a rebuild. Bound parameters
// are constant per execution, so they do not break staticness.
func subtreeStatic(n Node) bool {
	if _, ok := n.(*cteNode); ok {
		return false
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

// semiJoinNode filters the input by a decorrelated subquery: the
// subquery's correlation columns are materialized into a hash table and
// each input row probes with its correlated expressions. mode selects
// EXISTS (at least one strict-Eq candidate), or IN (three-valued
// membership of inExpr among candidates' in-column — the SQL [NOT] IN
// NULL semantics fall out of the 3VL fold).
type semiJoinNode struct {
	input     Node
	sub       *Plan
	subCols   []int // correlation columns of the subquery projection
	probes    []exprFn
	probeStrs []string
	inExpr    exprFn // nil for EXISTS
	inCol     int    // membership column of the subquery projection
	inStr     string
	negated   bool
}

func (n *semiJoinNode) Schema() []ColID { return n.input.Schema() }

func (n *semiJoinNode) Run(ctx *runCtx) exec.Seq {
	if n.inExpr != nil && len(n.subCols) == 0 {
		return ctx.traced(n, n.runUncorrelatedIn(ctx))
	}
	return ctx.traced(n, func(yield func(relation.Tuple, int) bool) {
		ht := exec.BuildHashTable(n.sub.run(ctx), n.subCols, len(n.sub.attrs))
		if op := ctx.trace.Lookup(n); op != nil {
			op.BuildRows = int64(ht.Len())
		}
		vals := make([]value.Value, len(n.probes))
		for t, m := range n.input.Run(ctx) {
			if !ctx.poll() {
				return
			}
			for i, p := range n.probes {
				vals[i] = p(t, ctx)
			}
			if ctx.err != nil {
				return
			}
			var tv value.TV
			if n.inExpr == nil {
				// EXISTS: any strict-Eq candidate suffices.
				tv = value.False
				ht.Candidates(vals, func(_ int, r exec.Row) bool {
					if ht.EqMatch(r, vals) {
						tv = value.True
						return false
					}
					return true
				})
			} else {
				// IN: 3VL OR-fold of (inExpr = candidate) over the
				// correlated candidates.
				x := n.inExpr(t, ctx)
				if ctx.err != nil {
					return
				}
				tv = value.False
				ht.Candidates(vals, func(_ int, r exec.Row) bool {
					if !ht.EqMatch(r, vals) {
						return true
					}
					tv = tv.Or(value.Eq.Apply(x, r.Tup[n.inCol]))
					return tv != value.True
				})
			}
			if n.negated {
				tv = tv.Not()
			}
			if !tv.Holds() {
				continue
			}
			if !yield(t, m) {
				return
			}
		}
	})
}

// runUncorrelatedIn hashes the membership column itself — with no
// correlation keys, the generic path would rescan every subquery row per
// input row. The 3VL fold collapses to: any strict-Eq match → True; else
// Unknown when the subquery is non-empty and contains a NULL or the
// probe is NULL; else False (True only after negation flips).
func (n *semiJoinNode) runUncorrelatedIn(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		ht := exec.BuildHashTable(n.sub.run(ctx), []int{n.inCol}, len(n.sub.attrs))
		hasNull := false
		for _, r := range ht.Rows() {
			if r.Tup[n.inCol].IsNull() {
				hasNull = true
				break
			}
		}
		vals := make([]value.Value, 1)
		for t, m := range n.input.Run(ctx) {
			if !ctx.poll() {
				return
			}
			vals[0] = n.inExpr(t, ctx)
			if ctx.err != nil {
				return
			}
			tv := value.False
			if ht.Len() > 0 {
				matched := false
				ht.Candidates(vals, func(_ int, r exec.Row) bool {
					if ht.EqMatch(r, vals) {
						matched = true
						return false
					}
					return true
				})
				switch {
				case matched:
					tv = value.True
				case hasNull || vals[0].IsNull():
					tv = value.Unknown
				}
			}
			if n.negated {
				tv = tv.Not()
			}
			if !tv.Holds() {
				continue
			}
			if !yield(t, m) {
				return
			}
		}
	}
}

func (n *semiJoinNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	op := "SemiJoin"
	word := "EXISTS"
	if n.negated {
		op = "AntiJoin"
		word = "NOT EXISTS"
	}
	if n.inExpr != nil {
		word = "IN"
		if n.negated {
			word = "NOT IN"
		}
	}
	fmt.Fprintf(b, "%s %s", op, word)
	if n.inStr != "" {
		fmt.Fprintf(b, " (%s)", n.inStr)
	}
	if len(n.probeStrs) > 0 {
		fmt.Fprintf(b, " corr(%s)", strings.Join(n.probeStrs, ", "))
	}
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
	n.sub.root.writeExplain(b, depth+1, tr)
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
}

func newProjectNode(input Node, exprs []exprFn, names []string) *projectNode {
	n := &projectNode{input: input, exprs: exprs}
	for _, name := range names {
		n.schema = append(n.schema, ColID{Col: name})
	}
	return n
}

func (n *projectNode) Schema() []ColID { return n.schema }

func (n *projectNode) Run(ctx *runCtx) exec.Seq {
	p := &projection{n: n, ctx: ctx, in: n.input.Run(ctx)}
	p.next = p.row
	return ctx.traced(n, p.run)
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
}

func (n *dedupNode) Schema() []ColID { return n.input.Schema() }

func (n *dedupNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, exec.Dedup(guard(n.input.Run(ctx), ctx)))
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
	name    string // surface aggregate name, for error messages
	str     string // rendered form, for EXPLAIN and post-group matching
	numeric bool   // sum/avg: non-null inputs must be numeric
}

// groupNode is γ: it projects each input row to [keys..., agg args...],
// streams through exec.GroupAggregate, and emits [keys..., agg values...]
// per group. Grouping with no keys emits exactly one group even over
// empty input (implicit grouping).
type groupNode struct {
	input   Node
	keys    []exprFn
	keyStrs []string
	aggs    []aggSpec
	conv    convention.Conventions
	schema  []ColID
}

func (n *groupNode) Schema() []ColID { return n.schema }

func (n *groupNode) Run(ctx *runCtx) exec.Seq {
	pre := func(yield func(relation.Tuple, int) bool) {
		// GroupAggregate copies key values and folds aggregate inputs
		// immediately, so the projection scratch tuple is reusable.
		scratch := make(relation.Tuple, 0, len(n.keys)+len(n.aggs))
		for t, m := range n.input.Run(ctx) {
			if !ctx.poll() {
				return
			}
			out := scratch[:0]
			for _, k := range n.keys {
				out = append(out, k(t, ctx))
			}
			for _, a := range n.aggs {
				if a.arg == nil {
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
	keyCols := identity(len(n.keys))
	aggs := make([]exec.Agg, len(n.aggs))
	for i, a := range n.aggs {
		aggs[i] = exec.Agg{Func: a.fn, Col: len(n.keys) + i}
	}
	return ctx.traced(n, exec.GroupAggregate(pre, keyCols, aggs, n.conv))
}

func (n *groupNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	aggStrs := make([]string, len(n.aggs))
	for i, a := range n.aggs {
		aggStrs[i] = a.str
	}
	fmt.Fprintf(b, "GroupAggregate keys=[%s] aggs=[%s]",
		strings.Join(n.keyStrs, ", "), strings.Join(aggStrs, ", "))
	writeStats(b, tr, n)
	b.WriteString("\n")
	n.input.writeExplain(b, depth+1, tr)
}
