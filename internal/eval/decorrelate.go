package eval

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/alt"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file compiles the two shapes that nest one scope inside another's
// pipeline, and which every Datalog aggregate and negated atom lowers to
// (datalog.ToARC): a γ∅ nested collection correlated to the enclosing
// scope through equalities becomes a grouped lookup — Kim's
// decorrelation with Ganski & Wong's outer-join repair, the rewrite
// whose inner-join form is the count bug — and an ∃/¬∃ subformula
// becomes a semi/anti probe. docs/INVARIANTS.md states the contract.

// groupRow is what a grouped lookup holds for one correlation key: the
// nested collection's one head tuple, nil when the group produces none
// (an aggregate predicate fails it), or the error evaluating it raised.
type groupRow struct {
	row relation.Tuple
	err error
}

// groupLookup is a γ∅ nested collection leaf: its scope, stripped of the
// correlation equalities and grouped by their inner sides, runs once per
// execution into rows; each outer tuple then reads the group of its own
// correlation values, or empty when there is none — one row per outer
// tuple whatever the inner cardinality.
type groupLookup struct {
	name  string
	inner *scopePlan
	head  []int      // producer index per head attribute of the collection
	probe []planTerm // outer sides of the correlation equalities, over the enclosing tuple
	strs  []string   // the equalities, for EXPLAIN
	// empty is γ∅ over no tuples under the active conventions. It never
	// comes from rows: a key without a group and a NULL key read it.
	empty groupRow
	// The groups, built by the execution's first probe: the correlation
	// values and row of each, chained by the hash of the values.
	built  bool
	keys   []relation.Tuple
	rows   []groupRow
	chains relation.Chains // slot i is keys[i] and rows[i]
	vals   relation.Tuple  // scratch: one probe's correlation values
	op     *trace.Op       // EXPLAIN ANALYZE counters; nil when untraced
}

// planExists is an ∃ (or, with neg, ¬∃) subformula compiled as a filter:
// inner's tuple is prefixed by the enclosing scope's, so each test probes
// inner's indexes from the outer tuple and stops at the first match.
type planExists struct {
	neg   bool
	inner *scopePlan
	op    *trace.Op
}

// boundBy reports whether r reads a range variable of q.
func (c *scopeCompiler) boundBy(q *alt.Quantifier) func(r *alt.AttrRef) bool {
	return func(r *alt.AttrRef) bool {
		res := c.link.Refs[r]
		return res.Kind == alt.RefBinding && c.link.BindingQuantifier[res.Binding] == q
	}
}

// compileLookup compiles the nested collection b ranges over, or says
// why its shape keeps the enclosing scope on environment enumeration.
func (c *scopeCompiler) compileLookup(b *alt.Binding) (*groupLookup, string) {
	sub := b.Sub
	q, ok := sub.Body.(*alt.Quantifier)
	if !ok || q.Grouping == nil || len(q.Grouping.Keys) > 0 || c.link.RecursiveCols[sub] {
		return nil, fmt.Sprintf("nested collection %s is not one γ∅ scope", sub.Head.Rel)
	}
	si, err := c.ev.scopeInfoFor(q)
	if err != nil {
		return nil, err.Error()
	}
	// The decorrelated variant of the scope: predicates that read the
	// enclosing scope must be equalities on an attribute of its own, and
	// turn from filters into grouping keys.
	lk := &groupLookup{name: sub.Head.Rel}
	dsi := *si
	dsi.plan, dsi.planTried, dsi.planReason = nil, false, ""
	dsi.where, dsi.eqPreds, dsi.closed = nil, nil, true
	corr := map[*alt.Pred]bool{}
	own := c.boundBy(q)
	for _, f := range si.where {
		if refs := alt.FormulaAttrRefs(f, nil); !slices.ContainsFunc(refs, func(r *alt.AttrRef) bool { return !own(r) }) {
			dsi.where = append(dsi.where, f)
			continue
		}
		p, _ := f.(*alt.Pred)
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
			return nil, fmt.Sprintf("nested collection %s correlates through %s, not an equality on its own attribute", lk.name, f)
		}
		src, ok := c.compileTerm(other)
		if !ok {
			return nil, fmt.Sprintf("correlation term %s outside the fragment", other)
		}
		corr[p] = true
		dsi.corrKeys = append(dsi.corrKeys, key)
		lk.probe = append(lk.probe, src)
		lk.strs = append(lk.strs, fmt.Sprintf("%s = %s", key, other))
	}
	for _, p := range si.eqPreds {
		if !corr[p] {
			dsi.eqPreds = append(dsi.eqPreds, p)
		}
	}
	var reason string
	if lk.inner, reason = c.ev.compileScope(&dsi, nil); lk.inner == nil {
		return nil, fmt.Sprintf("nested collection %s: %s", lk.name, reason)
	}
	if lk.head, ok = lk.inner.directHeadCols(sub.Head.Attrs); !ok {
		return nil, fmt.Sprintf("nested collection %s does not assign each head attribute once", lk.name)
	}
	// exec.GroupAggregate without keys yields its one group over no input
	// too: the aggregates' values over ∅ under the conventions.
	none := func(func(relation.Tuple, int) bool) {}
	exec.GroupAggregate(none, nil, lk.inner.execAggs(), c.ev.conv)(func(g relation.Tuple, _ int) bool {
		lk.empty = lk.rowOf(c.ev, append(make(relation.Tuple, len(lk.probe), len(lk.probe)+len(g)), g...))
		return false
	})
	if c.ev.tr != nil {
		lk.op = c.ev.tr.Op(b)
	}
	return lk, ""
}

// rowOf turns one group [keys..., aggregates...] into the collection's
// head tuple. The scope is closed, so no environment is consulted.
func (lk *groupLookup) rowOf(ev *evaluator, g relation.Tuple) groupRow {
	in := lk.inner
	if pass, err := in.groupPasses(ev, g, nil); err != nil || !pass {
		return groupRow{err: err}
	}
	row := make(relation.Tuple, len(lk.head))
	for i, pi := range lk.head {
		v, err := in.producers[pi].term.eval(ev, g, nil)
		if err != nil {
			return groupRow{err: err}
		}
		row[i] = v
	}
	return groupRow{row: row}
}

// admits reports whether correlation values can match a group: NULL
// equals nothing, so neither side of the table admits it.
func admits(vals relation.Tuple) bool { return !slices.ContainsFunc(vals, value.Value.IsNull) }

// slot returns the slot of the group whose correlation values are Equal
// to vals, whose hash is h, or -1 when there is none.
func (lk *groupLookup) slot(vals relation.Tuple, h uint64) int {
	ch := lk.chains.Chain(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if lk.keys[s].Equal(vals) {
			return s
		}
	}
	return -1
}

// add appends the group of keys, whose hash is h, with its row.
func (lk *groupLookup) add(keys relation.Tuple, h uint64, g groupRow) {
	lk.keys, lk.rows = append(lk.keys, keys), append(lk.rows, g)
	lk.chains.Add(h)
}

// build runs the decorrelated scope once and keeps every group's row. An
// evaluation error stays with the group whose tuple raised it.
func (lk *groupLookup) build(ev *evaluator) error {
	nk := len(lk.probe)
	lk.keys, lk.rows, lk.chains = nil, nil, relation.Chains{}
	err := lk.inner.eachGroup(ev, newEnv(), func(keys relation.Tuple, err error) {
		if !admits(keys) {
			return
		}
		h := keys.Hash()
		if s := lk.slot(keys, h); s >= 0 {
			lk.rows[s] = groupRow{err: err}
		} else {
			lk.add(keys.Clone(), h, groupRow{err: err}) // keys is γ's scratch input
		}
	}, func(g relation.Tuple) (bool, error) {
		// γ has consumed its whole input by now: a key already present
		// is a group one of whose tuples failed, and that error stands.
		if keys := g[:nk:nk]; admits(keys) {
			if h := keys.Hash(); lk.slot(keys, h) < 0 {
				lk.add(keys, h, lk.rowOf(ev, g))
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	lk.built = true
	if lk.op != nil {
		lk.op.BuildRows = int64(len(lk.rows))
	}
	return nil
}

// get returns the nested collection's row for the outer tuple t: nil when
// its group produces none.
func (lk *groupLookup) get(ev *evaluator, t relation.Tuple, e *env) (relation.Tuple, error) {
	if !lk.built {
		if err := lk.build(ev); err != nil {
			return nil, err
		}
	}
	lk.vals = lk.vals[:0]
	for _, p := range lk.probe {
		v, err := p.eval(ev, t, e)
		if err != nil {
			return nil, err
		}
		lk.vals = append(lk.vals, v)
	}
	g, hit := lk.empty, false
	if admits(lk.vals) {
		if s := lk.slot(lk.vals, lk.vals.Hash()); s >= 0 {
			g, hit = lk.rows[s], true
		}
	}
	if lk.op != nil {
		if hit {
			lk.op.ProbeHits++
		} else {
			lk.op.ProbeMisses++
		}
	}
	if g.err != nil {
		return nil, fmt.Errorf("%s: %w", lk.name, g.err)
	}
	return g.row, nil
}

// compileExists compiles one boolean subformula of the scope; a nil inner
// plan comes with the reason.
func (c *scopeCompiler) compileExists(f alt.Formula) (planExists, string) {
	var ex planExists
	if n, ok := f.(*alt.Not); ok {
		ex.neg = true
		f = n.Kid
	}
	q, ok := f.(*alt.Quantifier)
	if !ok {
		return ex, "boolean subformula other than ∃ or ¬∃"
	}
	si, err := c.ev.scopeInfoFor(q)
	switch {
	case err != nil:
		return ex, err.Error()
	case q.Grouping != nil:
		return ex, "grouped ∃ subformula"
	case len(si.producers) > 0:
		return ex, "∃ subformula with head assignments"
	}
	var reason string
	if ex.inner, reason = c.ev.compileScope(si, c); ex.inner == nil {
		return ex, "∃ subformula: " + reason
	}
	if c.ev.tr != nil {
		ex.op = c.ev.tr.Op(q)
	}
	return ex, ""
}

// holds is quantTV's two-valued answer for the outer tuple t, negated for
// ¬∃.
func (ex *planExists) holds(ev *evaluator, t relation.Tuple, e *env) (bool, error) {
	found := false
	err := ex.inner.each(ev, e, t, func(relation.Tuple, int) (bool, error) {
		found = true
		return false, nil
	})
	if err != nil {
		return false, err
	}
	if ex.op != nil {
		if found {
			ex.op.ProbeHits++
		} else {
			ex.op.ProbeMisses++
		}
	}
	return found != ex.neg, nil
}

// explain renders the lookup as one operator over its inner pipeline.
func (lk *groupLookup) explain(b *strings.Builder, v string, depth int) {
	aggs := make([]string, len(lk.inner.aggs))
	for i := range lk.inner.aggs {
		aggs[i] = lk.inner.aggs[i].agg.String()
	}
	empty := "none"
	switch {
	case lk.empty.err != nil:
		empty = "error"
	case lk.empty.row != nil:
		vals := make([]string, len(lk.empty.row))
		for i, x := range lk.empty.row {
			vals[i] = x.String()
		}
		empty = "{" + strings.Join(vals, ", ") + "}"
	}
	fmt.Fprintf(b, "GroupLookup %s [%s] keys(%s) aggs=[%s] empty=%s", lk.name, v,
		strings.Join(lk.strs, ", "), strings.Join(aggs, ", "), empty)
	if op := lk.op; op != nil {
		fmt.Fprintf(b, " (groups=%d probes=%d misses=%d)", op.BuildRows, op.ProbeHits+op.ProbeMisses, op.ProbeMisses)
	}
	b.WriteByte('\n')
	lk.inner.explain(b, depth+1)
}

// explain renders the filter as a semi or anti probe of its inner
// scope's first leaf, the rest of that scope indented beneath.
func (ex *planExists) explain(b *strings.Builder, depth int) {
	name := "SemiProbe"
	if ex.neg {
		name = "AntiProbe"
	}
	in, from := ex.inner, 0
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), name)
	if s := &in.steps[0]; !s.isCon && s.lookup == nil {
		fmt.Fprintf(b, " %s", s.describe())
		from = 1
	}
	if op := ex.op; op != nil {
		fmt.Fprintf(b, " (probes=%d matches=%d)", op.ProbeHits+op.ProbeMisses, op.ProbeHits)
	}
	b.WriteByte('\n')
	in.explainFrom(b, depth+1, from)
}
