package plan

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/trace"
)

// This file lowers WITH [RECURSIVE] onto the shared fixpoint engine.
// Each CTE materializes before the body runs; a recursive CTE's step is
// compiled ONCE into an exec tree whose self-reference is a cteNode
// reading a fixpoint.Handle, which the loop retargets to the rotating
// delta each round — the plan-side realization of semi-naive recursion
// over streaming operators. The loop is fixpoint.Run's, the base term a
// Seed rule and the step a Delta rule with one occurrence, as an ARC or
// Datalog rule runs: UNION runs set rounds, and UNION ALL, which keeps
// multiplicities, bag rounds. The delta drives each round: a hash join of
// the delta with a static side streams the delta into the static side —
// a stored relation's own index, or a table built once per execution —
// on whichever side of the join the query names the delta (hashJoinNode).
// Queries outside the planner fragment fall back (ErrNotPlannable) to the
// reference evaluator's independent naive-iteration loop, which the
// recursive differential corpus verifies byte-identical.

// cteBinding is the compile-time view of a CTE name: its schema plus the
// runtime handle its references read from.
type cteBinding struct {
	name   string
	attrs  []string
	handle *fixpoint.Handle
	delta  bool // true while compiling a recursive step (for EXPLAIN)
	static bool // one relation per execution: no CTE nested in a recursive step
}

// withCTE resolves a base-table name against the CTE scope.
func (c *compilerCtx) withCTE(name string) *cteBinding {
	return c.ctes[name]
}

// setCTE binds a name in a copy-on-write CTE scope, so nested WITHs
// shadow and restore cleanly.
func (c *compilerCtx) setCTE(b *cteBinding) {
	next := make(map[string]*cteBinding, len(c.ctes)+1)
	for k, v := range c.ctes {
		next[k] = v
	}
	next[b.name] = b
	c.ctes = next
}

// compiledCTE is one materialization step of a withNode.
type compiledCTE struct {
	name  string
	attrs []string
	// plain is the whole query of a non-recursive CTE.
	plain *Plan
	// base/step are the terms of a recursive CTE; step's self-references
	// read delta, which the loop rotates.
	base, step *Plan
	delta      *fixpoint.Handle
	// result receives the finished relation; body-side references read it.
	result   *fixpoint.Handle
	distinct bool // UNION vs UNION ALL accumulation
	// hint sizes the relation a CTE materializes into.
	hint exec.SizeHint
}

// compileWith lowers a WITH query: CTEs compile in order (each visible
// to the next), recursive ones through base/step splitting, then the
// body compiles against the full CTE scope.
func (c *compilerCtx) compileWith(w *sql.With, outer *scope) (*Plan, error) {
	savedScope := c.ctes
	defer func() { c.ctes = savedScope }()
	n := &withNode{}
	for _, cte := range w.CTEs {
		if w.Recursive {
			base, step, all, ok, err := cte.SplitRecursive()
			if err != nil {
				// A malformed recursive CTE is a semantic error; the
				// reference evaluator reports the same condition, so
				// falling back keeps one user-facing message.
				return nil, notPlannable("%s", err)
			}
			if ok {
				compiled, err := c.compileRecursiveCTE(cte, base, step, all, outer)
				if err != nil {
					return nil, err
				}
				n.ctes = append(n.ctes, compiled)
				c.setCTE(&cteBinding{name: cte.Name, attrs: compiled.attrs, handle: compiled.result, static: !c.stepping})
				continue
			}
		}
		sub, err := c.compileQuery(cte.Query, outer)
		if err != nil {
			return nil, err
		}
		attrs, err := cteAttrs(cte, sub.attrs)
		if err != nil {
			return nil, err
		}
		compiled := &compiledCTE{name: cte.Name, attrs: attrs, plain: sub, result: &fixpoint.Handle{}}
		n.ctes = append(n.ctes, compiled)
		c.setCTE(&cteBinding{name: cte.Name, attrs: attrs, handle: compiled.result, static: !c.stepping})
	}
	body, err := c.compileQuery(w.Body, outer)
	if err != nil {
		return nil, err
	}
	n.body = body.root
	return &Plan{root: n, attrs: body.attrs}, nil
}

// cteAttrs applies the declared column list over the query's own output
// names.
func cteAttrs(cte sql.CTE, got []string) ([]string, error) {
	if len(cte.Cols) == 0 {
		return got, nil
	}
	if len(cte.Cols) != len(got) {
		return nil, notPlannable("CTE %q declares %d columns, its query returns %d", cte.Name, len(cte.Cols), len(got))
	}
	return cte.Cols, nil
}

// compileRecursiveCTE compiles base and step; during step compilation
// the CTE name resolves to the delta handle, afterwards to the result.
func (c *compilerCtx) compileRecursiveCTE(cte sql.CTE, baseQ, stepQ sql.Query, all bool, outer *scope) (*compiledCTE, error) {
	basePlan, err := c.compileQuery(baseQ, outer)
	if err != nil {
		return nil, err
	}
	attrs, err := cteAttrs(cte, basePlan.attrs)
	if err != nil {
		return nil, err
	}
	out := &compiledCTE{
		name:     cte.Name,
		attrs:    attrs,
		base:     basePlan,
		delta:    &fixpoint.Handle{},
		result:   &fixpoint.Handle{},
		distinct: !all,
	}
	savedScope, stepping := c.ctes, c.stepping
	c.setCTE(&cteBinding{name: cte.Name, attrs: attrs, handle: out.delta, delta: true})
	c.stepping = true
	stepPlan, err := c.compileQuery(stepQ, outer)
	c.ctes, c.stepping = savedScope, stepping
	if err != nil {
		return nil, err
	}
	if len(stepPlan.attrs) != len(attrs) {
		return nil, notPlannable("recursive CTE %q: step arity %d, want %d", cte.Name, len(stepPlan.attrs), len(attrs))
	}
	out.step = stepPlan
	return out, nil
}

// materialize computes one CTE's relation into its result handle. The
// handle's relation is stored in the runCtx, never on the plan, so
// concurrent executions of one compiled plan do not share fixpoint state.
// The step's stream is set up once and run every round: what in it reads
// the delta reads it as the round runs (cteNode, hashJoinNode.Run), and a
// probe forgets what it found when the delta moves (setHandle).
func (x *compiledCTE) materialize(ctx *runCtx) error {
	if x.plain != nil {
		rel := relation.New(x.name, x.attrs...)
		rel.Reserve(x.hint.Size())
		for t, m := range x.plain.root.Run(ctx) {
			if !ctx.poll() {
				return ctx.err
			}
			rel.InsertMult(t, m)
		}
		if ctx.err != nil {
			return ctx.err
		}
		x.hint.Record(rel.Distinct())
		ctx.setHandle(x.result, rel)
		return nil
	}
	d := &drain{ctx: ctx}
	d.next = d.row
	var step exec.Seq
	var onRound func(int, time.Duration)
	if ctx.trace != nil {
		onRound = ctx.trace.Fixpoint(x, x.name).Observe
	}
	total := relation.New(x.name, x.attrs...)
	total.Reserve(x.hint.Size())
	err := fixpoint.Run(map[string]*relation.Relation{x.name: total}, []fixpoint.Rule{
		{Target: x.name, Kind: fixpoint.Seed, Eval: func(_ int, _ *relation.Relation, emit fixpoint.Emit) error {
			return d.run(x.base.root.Run(ctx), emit)
		}},
		{Target: x.name, Kind: fixpoint.Delta, Occs: []string{x.name}, Eval: func(occ int, delta *relation.Relation, emit fixpoint.Emit) error {
			if occ < 0 {
				return nil // the step reads only the working table, empty before round 1
			}
			ctx.setHandle(x.delta, delta)
			if step == nil {
				step = x.step.root.Run(ctx)
			}
			return d.run(step, emit)
		}},
	}, fixpoint.Options{
		Name:    "recursive CTE " + x.name,
		Bag:     !x.distinct,
		Check:   ctx.check,
		OnRound: onRound,
	})
	if err != nil {
		if !x.distinct && errors.Is(err, fixpoint.ErrIterationCap) {
			err = fmt.Errorf("%w (UNION ALL recursion needs a bounded step)", err)
		}
		return err
	}
	x.hint.Record(total.Distinct())
	ctx.setHandle(x.result, total)
	return nil
}

// drain streams a recursive CTE's terms into the fixpoint, polling the
// execution as rows pass. Its callback is made once, so a round allocates
// nothing to run the step.
type drain struct {
	ctx  *runCtx
	emit fixpoint.Emit
	err  error                          // emit's
	next func(relation.Tuple, int) bool // row
}

// run streams seq's rows into emit and returns the first error.
func (d *drain) run(seq exec.Seq, emit fixpoint.Emit) error {
	d.emit, d.err = emit, nil
	seq(d.next)
	if d.err != nil {
		return d.err
	}
	return d.ctx.err
}

func (d *drain) row(t relation.Tuple, m int) bool {
	if !d.ctx.poll() {
		return false
	}
	d.err = d.emit(t, m)
	return d.err == nil
}

// withNode materializes its CTEs in order, then streams the body.
type withNode struct {
	ctes []*compiledCTE
	body Node
}

func (n *withNode) Schema() []ColID { return n.body.Schema() }

func (n *withNode) Run(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		if err := n.materialize(ctx); err != nil {
			ctx.fail(err)
			return
		}
		for t, m := range n.body.Run(ctx) {
			if !ctx.poll() {
				return
			}
			if !yield(t, m) {
				return
			}
		}
	}
}

// materialize materializes n's CTEs in order.
func (n *withNode) materialize(ctx *runCtx) error {
	for _, cte := range n.ctes {
		if err := cte.materialize(ctx); err != nil {
			return err
		}
	}
	return nil
}

// passedThrough returns the CTE scan whose rows n's body streams as they
// are, or nil when the body computes its rows.
func (n *withNode) passedThrough(ctx *runCtx) *cteNode {
	pn, ok := n.body.(*projectNode)
	if !ok {
		return nil
	}
	if cn, ok := pn.input.(*cteNode); ok && pn.passesThrough(ctx) {
		return cn
	}
	return nil
}

func (n *withNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	b.WriteString("With\n")
	for _, cte := range n.ctes {
		indent(b, depth+1)
		if cte.plain != nil {
			fmt.Fprintf(b, "CTE %s [%s]\n", cte.name, strings.Join(cte.attrs, ", "))
			cte.plain.root.writeExplain(b, depth+2, tr)
			continue
		}
		mode := "UNION"
		if !cte.distinct {
			mode = "UNION ALL"
		}
		fmt.Fprintf(b, "RecursiveCTE %s [%s] %s", cte.name, strings.Join(cte.attrs, ", "), mode)
		if tr != nil {
			if fp := tr.LookupFixpoint(cte); fp != nil {
				deltas := make([]string, len(fp.Rounds))
				for i, r := range fp.Rounds {
					deltas[i] = strconv.Itoa(r.Delta)
				}
				fmt.Fprintf(b, " (rounds=%d deltas=[%s])", len(fp.Rounds), strings.Join(deltas, " "))
			} else {
				b.WriteString(" (never executed)")
			}
		}
		b.WriteString("\n")
		indent(b, depth+2)
		b.WriteString("Base:\n")
		cte.base.root.writeExplain(b, depth+3, tr)
		indent(b, depth+2)
		fmt.Fprintf(b, "Step (Δ%s per round):\n", cte.name)
		cte.step.root.writeExplain(b, depth+3, tr)
	}
	indent(b, depth+1)
	b.WriteString("Body:\n")
	n.body.writeExplain(b, depth+2, tr)
}

// cteNode streams a CTE reference through its handle: the materialized
// result for body references, the rotating delta inside a recursive step.
type cteNode struct {
	name   string
	alias  string
	handle *fixpoint.Handle
	delta  bool
	static bool
	schema []ColID
}

func newCTENode(bind *cteBinding, alias string) *cteNode {
	n := &cteNode{name: bind.name, alias: alias, handle: bind.handle, delta: bind.delta, static: bind.static}
	for _, a := range bind.attrs {
		n.schema = append(n.schema, ColID{Rel: alias, Col: a})
	}
	return n
}

func (n *cteNode) Schema() []ColID { return n.schema }

func (n *cteNode) Run(ctx *runCtx) exec.Seq {
	return ctx.traced(n, func(yield func(relation.Tuple, int) bool) {
		rel := ctx.handleRel(n.handle)
		if rel == nil {
			return
		}
		rel.EachWhile(yield)
	})
}

func (n *cteNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	indent(b, depth)
	name := n.name
	if n.delta {
		name = "Δ" + name
	}
	fmt.Fprintf(b, "CteScan %s", name)
	if n.alias != n.name {
		fmt.Fprintf(b, " as %s", n.alias)
	}
	writeStats(b, tr, n)
	b.WriteString("\n")
}
