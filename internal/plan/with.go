package plan

import (
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
// over streaming operators. Under UNION the loop is fixpoint.Run's, the
// base term a Seed rule and the step a Delta rule with one occurrence,
// as an ARC or Datalog rule runs; UNION ALL, which keeps multiplicities,
// runs fixpoint.CTE's working-table loop. The delta drives each round: a
// hash join of the delta with a static side streams the delta into the
// static side — a stored relation's own index, or a table built once per
// execution — on whichever side of the join the query names the delta
// (hashJoinNode). Queries outside the planner fragment fall back
// (ErrNotPlannable) to the reference evaluator's independent
// naive-iteration loop, which the recursive differential corpus verifies
// byte-identical.

// cteBinding is the compile-time view of a CTE name: its schema plus the
// runtime handle its references read from.
type cteBinding struct {
	name   string
	attrs  []string
	handle *fixpoint.Handle
	delta  bool // true while compiling a recursive step (for EXPLAIN)
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
				c.setCTE(&cteBinding{name: cte.Name, attrs: compiled.attrs, handle: compiled.result})
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
		c.setCTE(&cteBinding{name: cte.Name, attrs: attrs, handle: compiled.result})
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
	savedScope := c.ctes
	c.setCTE(&cteBinding{name: cte.Name, attrs: attrs, handle: out.delta, delta: true})
	stepPlan, err := c.compileQuery(stepQ, outer)
	c.ctes = savedScope
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
func (x *compiledCTE) materialize(ctx *runCtx) error {
	if x.plain != nil {
		rel := relation.New(x.name, x.attrs...)
		for t, m := range x.plain.run(ctx) {
			if !ctx.poll() {
				return ctx.err
			}
			rel.InsertMult(t, m)
		}
		if ctx.err != nil {
			return ctx.err
		}
		ctx.setHandle(x.result, rel)
		return nil
	}
	// drain streams one term's rows into emit.
	drain := func(term *Plan, emit fixpoint.EmitMult) error {
		for t, m := range term.run(ctx) {
			if !ctx.poll() {
				return ctx.err
			}
			if err := emit(t, m); err != nil {
				return err
			}
		}
		return ctx.err
	}
	var onRound func(int, time.Duration)
	if ctx.trace != nil {
		onRound = ctx.trace.Fixpoint(x, x.name).Observe
	}
	if x.distinct {
		total := relation.New(x.name, x.attrs...)
		var emit fixpoint.Emit
		set := func(t relation.Tuple, _ int) error { return emit(t) } // emit, without multiplicities
		err := fixpoint.Run(map[string]*relation.Relation{x.name: total}, []fixpoint.Rule{
			{Target: x.name, Kind: fixpoint.Seed, Eval: func(_ int, _ *relation.Relation, e fixpoint.Emit) error {
				emit = e
				return drain(x.base, set)
			}},
			{Target: x.name, Kind: fixpoint.Delta, Occs: []string{x.name}, Eval: func(occ int, delta *relation.Relation, e fixpoint.Emit) error {
				if occ < 0 {
					return nil // the step reads only the working table, empty before round 1
				}
				emit = e
				ctx.setHandle(x.delta, delta)
				return drain(x.step, set)
			}},
		}, fixpoint.Options{
			Name:          "recursive CTE " + x.name,
			MaxIterations: fixpoint.DefaultMaxCTEIterations,
			Check:         ctx.check,
			OnRound:       onRound,
		})
		if err != nil {
			return err
		}
		ctx.setHandle(x.result, total)
		return nil
	}
	loop := &fixpoint.CTE{
		Name:  x.name,
		Attrs: x.attrs,
		Base:  func(emit fixpoint.EmitMult) error { return drain(x.base, emit) },
		Step: func(delta *relation.Relation, emit fixpoint.EmitMult) error {
			ctx.setHandle(x.delta, delta)
			return drain(x.step, emit)
		},
		Check:   ctx.check,
		OnRound: onRound,
	}
	rel, err := loop.Run()
	if err != nil {
		return err
	}
	ctx.setHandle(x.result, rel)
	return nil
}

// withNode materializes its CTEs in order, then streams the body.
type withNode struct {
	ctes []*compiledCTE
	body Node
}

func (n *withNode) Schema() []ColID { return n.body.Schema() }

func (n *withNode) Run(ctx *runCtx) exec.Seq {
	return func(yield func(relation.Tuple, int) bool) {
		for _, cte := range n.ctes {
			if err := cte.materialize(ctx); err != nil {
				ctx.fail(err)
				return
			}
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
	schema []ColID
}

func newCTENode(bind *cteBinding, alias string) *cteNode {
	n := &cteNode{name: bind.name, alias: alias, handle: bind.handle, delta: bind.delta}
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
