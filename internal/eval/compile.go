package eval

import (
	"fmt"
	"strings"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file is the tuple-level compilation of quantifier scopes: the ARC
// analogue of internal/plan's SQL lowering. A scope whose join tree is a
// flat inner join over plain relation leaves (base relations, views,
// recursion overrides, constant leaves) compiles into an indexed
// nested-loop pipeline over relation tuples — probing the lazy hash
// indexes with the scope's equality predicates, filtering as early as the
// referenced leaves are bound, and streaming grouped scopes through
// exec.GroupAggregate — instead of materializing per-row environment
// maps. Scopes outside the fragment (outer-join annotations, externals,
// abstract relations, nested collection sources, producing subformulas)
// keep the environment enumeration path; results are identical, which
// the qgen differential suite verifies.

// planTerm is one compiled scalar term over the scope's tuple layout.
type planTerm struct {
	// eval computes the term given the scope tuple (nil-safe for outer
	// terms) and the outer environment.
	eval func(ev *evaluator, t relation.Tuple, e *env) (value.Value, error)
	// pos is the greatest step index whose columns the term reads, or -1
	// when it reads none (constants and outer references).
	pos int
	str string
}

// planProbe feeds one leaf attribute from an earlier-bound term.
type planProbe struct {
	col int // attribute index within the leaf relation
	src planTerm
	str string
}

// planStep enumerates one leaf of the scope's join tree.
type planStep struct {
	b      *alt.Binding
	isCon  bool        // constant leaf (join-annotation constant)
	conVal value.Value // value of a constant leaf
	attrs  []string
	start  int // first tuple column of this leaf
	probes []planProbe
}

// planFilter is one compiled WHERE predicate. It runs twice: as a
// pruning hint as soon as its step is bound (where evaluation errors are
// ignored and rows kept — partial tuples must not raise errors the
// enumeration path would never see), and authoritatively on complete
// tuples, in original predicate order with short-circuiting, exactly
// like satisfyingEnvs.
type planFilter struct {
	after int // earliest step index after which the pruning pass can run
	eval  func(ev *evaluator, t relation.Tuple, e *env) (value.TV, error)
	str   string
}

// planAgg is one aggregate column of a compiled grouped scope.
type planAgg struct {
	agg     *alt.Agg
	fn      exec.AggFunc
	arg     planTerm
	numeric bool // sum/avg: non-null inputs must be numeric
}

// planProducer assigns one head attribute from a compiled term (either a
// scope-tuple term, or a post-group term for grouped scopes).
type planProducer struct {
	attr string
	term planTerm
}

// planPostPred is an aggregate comparison predicate evaluated per group.
type planPostPred struct {
	eval func(ev *evaluator, group relation.Tuple, e *env) (value.TV, error)
	str  string
}

// scopePlan is the compiled form of one quantifier scope.
type scopePlan struct {
	si      *scopeInfo
	steps   []planStep
	ncols   int
	filters []planFilter
	// grouped scopes:
	grouped    bool
	keys       []planTerm
	aggs       []planAgg
	aggFilters []planPostPred
	// producers run over the scope tuple (ungrouped) or the post-group
	// tuple [keys..., aggs...] (grouped).
	producers []planProducer
}

// scopePlanFor compiles (once, cached) the scope's tuple plan; nil means
// the scope stays on the enumeration path.
func (ev *evaluator) scopePlanFor(si *scopeInfo) *scopePlan {
	if ev.reference {
		return nil
	}
	if !si.planTried {
		si.planTried = true
		si.plan, si.planReason = ev.compileScope(si)
	}
	return si.plan
}

// scopeCompiler carries compile-time state for one scope.
type scopeCompiler struct {
	ev     *evaluator
	si     *scopeInfo
	link   *alt.Link
	colOf  map[string]map[string]int // var → attr → tuple column
	stepOf map[string]int            // var → step index
}

// compileScope lowers a scope or reports why it cannot (the reason shows
// up in EXPLAIN output).
func (ev *evaluator) compileScope(si *scopeInfo) (*scopePlan, string) {
	if si.tree.isLeaf() || si.tree.kind != alt.JoinInner || len(si.tree.kids) == 0 {
		return nil, "join annotation with outer joins"
	}
	if len(si.filters) > 0 {
		return nil, "boolean subformulas need environments"
	}
	c := &scopeCompiler{
		ev:     ev,
		si:     si,
		link:   ev.curLink(),
		colOf:  map[string]map[string]int{},
		stepOf: map[string]int{},
	}
	sp := &scopePlan{si: si}
	for _, kid := range si.tree.kids {
		if !kid.isLeaf() {
			return nil, "nested join annotation"
		}
		b := kid.leaf
		step := planStep{b: b, start: sp.ncols}
		if v, isConst := c.link.ConstOfBinding[b]; isConst {
			step.isCon = true
			step.conVal = v
			step.attrs = []string{"val"}
		} else {
			if b.Sub != nil {
				return nil, "nested collection source"
			}
			if _, ok := ev.overrides[b.Rel]; !ok {
				if ev.base[b.Rel] == nil {
					if _, isView := ev.cat.views[b.Rel]; !isView {
						return nil, fmt.Sprintf("source %s needs access patterns", b.Rel)
					}
				}
			}
			attrs, err := ev.sourceAttrs(b)
			if err != nil {
				return nil, err.Error()
			}
			step.attrs = attrs
		}
		cols := make(map[string]int, len(step.attrs))
		for i, a := range step.attrs {
			cols[a] = sp.ncols + i
		}
		c.colOf[b.Var] = cols
		c.stepOf[b.Var] = len(sp.steps)
		sp.ncols += len(step.attrs)
		sp.steps = append(sp.steps, step)
	}

	// WHERE predicates become filters placed at the earliest step where
	// their leaf references are bound; predicates reading no leaf at all
	// run on complete tuples only, matching enumeration error behaviour.
	for _, f := range si.where {
		pf, ok := c.compileFilter(f)
		if !ok {
			return nil, fmt.Sprintf("predicate %s outside the term fragment", f)
		}
		sp.filters = append(sp.filters, pf)
	}

	// Equality predicates feed index probes, exactly like probeInputs:
	// the other side must be evaluable before the probed leaf binds.
	for i := range sp.steps {
		step := &sp.steps[i]
		if step.isCon {
			continue
		}
		for _, p := range si.eqPreds {
			if si.fullOn[p] {
				continue
			}
			for _, side := range [2][2]alt.Term{{p.Left, p.Right}, {p.Right, p.Left}} {
				ref, okRef := side[0].(*alt.AttrRef)
				if !okRef || ref.Var != step.b.Var {
					continue
				}
				col, okCol := c.colOf[step.b.Var][ref.Attr]
				if !okCol {
					continue
				}
				src, ok := c.compileTerm(side[1])
				if !ok || src.pos >= i {
					continue
				}
				step.probes = append(step.probes, planProbe{
					col: col - step.start,
					src: src,
					str: fmt.Sprintf("%s = %s", ref, side[1]),
				})
				break
			}
		}
	}

	// Producers must all be head assignments with compilable sources.
	q := si.q
	sp.grouped = q.Grouping != nil
	for _, pf := range si.producers {
		p, okPred := pf.(*alt.Pred)
		if !okPred || ev.effPredKind(p) != alt.PredAssignment {
			return nil, "producing subformula"
		}
		head, other := p.Left, p.Right
		if c.link.HeadSide[p] == 1 {
			head, other = p.Right, p.Left
		}
		attr := head.(*alt.AttrRef).Attr
		var term planTerm
		var ok bool
		if sp.grouped {
			term, ok = c.compilePostTerm(other, sp)
		} else {
			term, ok = c.compileTerm(other)
		}
		if !ok {
			return nil, fmt.Sprintf("assignment source %s outside the fragment", other)
		}
		sp.producers = append(sp.producers, planProducer{attr: attr, term: term})
	}

	if sp.grouped {
		for _, k := range q.Grouping.Keys {
			term, ok := c.compileTerm(k)
			if !ok {
				return nil, fmt.Sprintf("grouping key %s outside the fragment", k)
			}
			sp.keys = append(sp.keys, term)
		}
		for _, p := range si.aggFilters {
			pp, ok := c.compilePostPred(p, sp)
			if !ok {
				return nil, fmt.Sprintf("aggregate predicate %s outside the fragment", p)
			}
			sp.aggFilters = append(sp.aggFilters, pp)
		}
	} else if len(si.aggTerms) > 0 {
		return nil, "aggregates without grouping"
	}
	return sp, ""
}

// localRef resolves an attribute reference bound by this scope to its
// step; outer references return (-1, false, true) and head references
// are rejected.
func (c *scopeCompiler) localRef(r *alt.AttrRef) (step int, local, ok bool) {
	res, known := c.link.Refs[r]
	if !known || res.Kind != alt.RefBinding {
		return 0, false, false
	}
	if c.link.BindingQuantifier[res.Binding] != c.si.q {
		return 0, false, true // outer correlation: evaluate via the env
	}
	s, okStep := c.stepOf[r.Var]
	if !okStep {
		return 0, false, false
	}
	return s, true, true
}

// compileTerm lowers a term over the scope tuple. Aggregates are not
// allowed here (grouped contexts use compilePostTerm).
func (c *scopeCompiler) compileTerm(t alt.Term) (planTerm, bool) {
	switch x := t.(type) {
	case *alt.Const:
		v := x.Val
		return planTerm{
			eval: func(*evaluator, relation.Tuple, *env) (value.Value, error) { return v, nil },
			pos:  -1,
			str:  x.String(),
		}, true
	case *alt.AttrRef:
		step, local, ok := c.localRef(x)
		if !ok {
			return planTerm{}, false
		}
		if !local {
			ref := x
			return planTerm{
				eval: func(ev *evaluator, _ relation.Tuple, e *env) (value.Value, error) {
					return ev.evalTermAgg(ref, e, nil)
				},
				pos: -1,
				str: x.String(),
			}, true
		}
		col, okCol := c.colOf[x.Var][x.Attr]
		if !okCol {
			return planTerm{}, false
		}
		return planTerm{
			eval: func(_ *evaluator, t relation.Tuple, _ *env) (value.Value, error) { return t[col], nil },
			pos:  step,
			str:  x.String(),
		}, true
	case *alt.Arith:
		l, okL := c.compileTerm(x.L)
		r, okR := c.compileTerm(x.R)
		if !okL || !okR {
			return planTerm{}, false
		}
		return combineArith(x, l, r), true
	}
	return planTerm{}, false
}

// combineArith builds the arithmetic closure shared by both term layers.
func combineArith(x *alt.Arith, l, r planTerm) planTerm {
	op := x.Op
	str := x.String()
	pos := l.pos
	if r.pos > pos {
		pos = r.pos
	}
	return planTerm{
		eval: func(ev *evaluator, t relation.Tuple, e *env) (value.Value, error) {
			a, err := l.eval(ev, t, e)
			if err != nil {
				return value.Null(), err
			}
			b, err := r.eval(ev, t, e)
			if err != nil {
				return value.Null(), err
			}
			var out value.Value
			var ok bool
			switch op {
			case alt.OpAdd:
				out, ok = value.Add(a, b)
			case alt.OpSub:
				out, ok = value.Sub(a, b)
			case alt.OpMul:
				out, ok = value.Mul(a, b)
			case alt.OpDiv:
				out, ok = value.Div(a, b)
			}
			if !ok {
				return value.Null(), fmt.Errorf("type error in %s", str)
			}
			return out, nil
		},
		pos: pos,
		str: str,
	}
}

// compileFilter lowers a WHERE predicate or IS NULL test.
func (c *scopeCompiler) compileFilter(f alt.Formula) (planFilter, bool) {
	last := len(c.si.tree.kids) - 1
	switch x := f.(type) {
	case *alt.Pred:
		if alt.ContainsAgg(x.Left) || alt.ContainsAgg(x.Right) {
			return planFilter{}, false
		}
		l, okL := c.compileTerm(x.Left)
		r, okR := c.compileTerm(x.Right)
		if !okL || !okR {
			return planFilter{}, false
		}
		after := l.pos
		if r.pos > after {
			after = r.pos
		}
		if after >= last {
			after = -1 // complete-tuple filters run in the final pass only
		}
		op := x.Op
		return planFilter{
			after: after,
			eval: func(ev *evaluator, t relation.Tuple, e *env) (value.TV, error) {
				a, err := l.eval(ev, t, e)
				if err != nil {
					return value.False, err
				}
				b, err := r.eval(ev, t, e)
				if err != nil {
					return value.False, err
				}
				return op.Apply(a, b), nil
			},
			str: x.String(),
		}, true
	case *alt.IsNull:
		arg, ok := c.compileTerm(x.Arg)
		if !ok {
			return planFilter{}, false
		}
		after := arg.pos
		if after >= last {
			after = -1 // complete-tuple filters run in the final pass only
		}
		neg := x.Negated
		return planFilter{
			after: after,
			eval: func(ev *evaluator, t relation.Tuple, e *env) (value.TV, error) {
				v, err := arg.eval(ev, t, e)
				if err != nil {
					return value.False, err
				}
				return value.TVFromBool(v.IsNull() != neg), nil
			},
			str: x.String(),
		}, true
	}
	return planFilter{}, false
}

// compilePostTerm lowers a term over the post-group tuple
// [keys..., aggregate values...]: grouping keys match by (var, attr),
// aggregates by node identity, everything else must be constant or outer.
func (c *scopeCompiler) compilePostTerm(t alt.Term, sp *scopePlan) (planTerm, bool) {
	switch x := t.(type) {
	case *alt.Const:
		return c.compileTerm(t)
	case *alt.AttrRef:
		for i, k := range c.si.q.Grouping.Keys {
			if k.Var == x.Var && k.Attr == x.Attr {
				col := i
				return planTerm{
					eval: func(_ *evaluator, g relation.Tuple, _ *env) (value.Value, error) {
						return g[col], nil
					},
					pos: 0,
					str: x.String(),
				}, true
			}
		}
		_, local, ok := c.localRef(x)
		if !ok || local {
			// Local references outside the grouping keys would need a
			// representative environment.
			return planTerm{}, false
		}
		return c.compileTerm(t)
	case *alt.Agg:
		idx := -1
		for i := range sp.aggs {
			if sp.aggs[i].agg == x {
				idx = i
				break
			}
		}
		if idx < 0 {
			var ok bool
			idx, ok = c.addAgg(x, sp)
			if !ok {
				return planTerm{}, false
			}
		}
		col := len(c.si.q.Grouping.Keys) + idx
		return planTerm{
			eval: func(_ *evaluator, g relation.Tuple, _ *env) (value.Value, error) {
				return g[col], nil
			},
			pos: 0,
			str: x.String(),
		}, true
	case *alt.Arith:
		l, okL := c.compilePostTerm(x.L, sp)
		r, okR := c.compilePostTerm(x.R, sp)
		if !okL || !okR {
			return planTerm{}, false
		}
		return combineArith(x, l, r), true
	}
	return planTerm{}, false
}

// addAgg registers one aggregate of the scope as a γ column.
func (c *scopeCompiler) addAgg(a *alt.Agg, sp *scopePlan) (int, bool) {
	arg, ok := c.compileTerm(a.Arg)
	if !ok {
		return 0, false
	}
	pa := planAgg{agg: a, arg: arg}
	switch a.Func {
	case alt.AggCount:
		pa.fn = exec.CountCol
	case alt.AggCountDistinct:
		pa.fn = exec.CountDistinct
	case alt.AggSum:
		pa.fn = exec.Sum
		pa.numeric = true
	case alt.AggAvg:
		pa.fn = exec.Avg
		pa.numeric = true
	case alt.AggMin:
		pa.fn = exec.Min
	case alt.AggMax:
		pa.fn = exec.Max
	default:
		return 0, false
	}
	sp.aggs = append(sp.aggs, pa)
	return len(sp.aggs) - 1, true
}

// compilePostPred lowers an aggregate comparison predicate.
func (c *scopeCompiler) compilePostPred(p *alt.Pred, sp *scopePlan) (planPostPred, bool) {
	l, okL := c.compilePostTerm(p.Left, sp)
	r, okR := c.compilePostTerm(p.Right, sp)
	if !okL || !okR {
		return planPostPred{}, false
	}
	op := p.Op
	nullLogic := c.ev.conv.NullLogic
	return planPostPred{
		eval: func(ev *evaluator, g relation.Tuple, e *env) (value.TV, error) {
			a, err := l.eval(ev, g, e)
			if err != nil {
				return value.False, err
			}
			b, err := r.eval(ev, g, e)
			if err != nil {
				return value.False, err
			}
			tv := op.Apply(a, b)
			if tv == value.Unknown && nullLogic == convention.TwoValued {
				return value.False, nil
			}
			return tv, nil
		},
		str: p.String(),
	}, true
}

// --- Execution ------------------------------------------------------------

// resolveLeaf finds the relation a step ranges over at run time, in the
// same order enumerateLeaf uses (recursion overrides first, then base
// relations, then views).
func (sp *scopePlan) resolveLeaf(ev *evaluator, step *planStep) (*relation.Relation, error) {
	b := step.b
	if rel, ok := ev.overrides[b.Rel]; ok {
		return rel, nil
	}
	if rel := ev.base[b.Rel]; rel != nil {
		return rel, nil
	}
	if _, ok := ev.cat.views[b.Rel]; ok {
		return ev.evalView(b.Rel)
	}
	return nil, fmt.Errorf("unknown relation %q", b.Rel)
}

// each enumerates the scope's satisfying tuples with their bag weights
// (weight 1 per distinct tuple under set semantics), applying probes and
// filters as early as their inputs bind. f returns false to stop.
func (sp *scopePlan) each(ev *evaluator, e *env, f func(t relation.Tuple, mult int) (bool, error)) error {
	t := make(relation.Tuple, sp.ncols)
	bag := ev.conv.Semantics == convention.Bag
	var walk func(step int, mult int) (bool, error)
	walk = func(step int, mult int) (bool, error) {
		if step == len(sp.steps) {
			// Authoritative filter pass on the complete tuple, in
			// predicate order with short-circuiting — identical to the
			// enumeration path, including which errors can surface.
			for i := range sp.filters {
				tv, err := sp.filters[i].eval(ev, t, e)
				if err != nil {
					return false, err
				}
				if !tv.Holds() {
					return true, nil
				}
			}
			return f(t, mult)
		}
		s := &sp.steps[step]
		extend := func(tup relation.Tuple, m int) (bool, error) {
			copy(t[s.start:], tup)
			w := 1
			if bag {
				w = m
			}
			for i := range sp.filters {
				fl := &sp.filters[i]
				if fl.after != step {
					continue
				}
				// Pruning pass: drop only on a definite evaluation; an
				// error here may be an artifact of the partial tuple.
				if tv, err := fl.eval(ev, t, e); err == nil && !tv.Holds() {
					return true, nil
				}
			}
			return walk(step+1, mult*w)
		}
		if s.isCon {
			return extend(relation.Tuple{s.conVal}, 1)
		}
		rel, err := sp.resolveLeaf(ev, s)
		if err != nil {
			return false, err
		}
		var cols []int
		var vals []value.Value
		for _, p := range s.probes {
			v, err := p.src.eval(ev, t, e)
			if err != nil || !v.Indexable() {
				continue // not evaluable or key identity too weak; scan covers it
			}
			if rel.AttrIndex(s.attrs[p.col]) != p.col {
				// Attribute layout changed under us (should not happen);
				// fall back to a scan for safety.
				cols, vals = nil, nil
				break
			}
			cols = append(cols, p.col)
			vals = append(vals, v)
		}
		cont := true
		var inner error
		rel.Probe(cols, vals, func(tup relation.Tuple, m int) bool {
			c, err := extend(tup, m)
			if err != nil {
				inner = err
				return false
			}
			cont = c
			return c
		})
		if inner != nil {
			return false, inner
		}
		return cont, nil
	}
	_, err := walk(0, 1)
	return err
}

// produce runs the compiled scope for one outer environment, returning
// the produced head-assignment rows (the tuple-level replacement for
// satisfyingEnvs + mergeProducers / groupEnvs + groupRow).
func (sp *scopePlan) produce(ev *evaluator, e *env) ([]prodRow, error) {
	if sp.grouped {
		return sp.produceGrouped(ev, e)
	}
	var rows []prodRow
	err := sp.each(ev, e, func(t relation.Tuple, mult int) (bool, error) {
		assign := make(map[string]value.Value, len(sp.producers))
		for _, p := range sp.producers {
			v, err := p.term.eval(ev, t, e)
			if err != nil {
				return false, err
			}
			if prev, dup := assign[p.attr]; dup {
				if value.Eq.Apply(prev, v) != value.True {
					return true, nil // conflicting assignment: drop the row
				}
				continue
			}
			assign[p.attr] = v
		}
		rows = append(rows, prodRow{assign: assign, weight: mult})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// produceGrouped streams the scope through exec.GroupAggregate and
// evaluates aggregate predicates and producers per group.
func (sp *scopePlan) produceGrouped(ev *evaluator, e *env) ([]prodRow, error) {
	var streamErr error
	pre := func(yield func(relation.Tuple, int) bool) {
		// GroupAggregate copies key values and folds aggregate inputs
		// immediately, so the projection scratch tuple is reusable.
		scratch := make(relation.Tuple, 0, len(sp.keys)+len(sp.aggs))
		err := sp.each(ev, e, func(t relation.Tuple, mult int) (bool, error) {
			out := scratch[:0]
			for _, k := range sp.keys {
				v, err := k.eval(ev, t, e)
				if err != nil {
					return false, err
				}
				out = append(out, v)
			}
			for i := range sp.aggs {
				a := &sp.aggs[i]
				v, err := a.arg.eval(ev, t, e)
				if err != nil {
					return false, err
				}
				if a.numeric && !v.IsNull() && !v.IsNumeric() {
					return false, fmt.Errorf("%s over non-numeric value %v", a.agg.Func, v)
				}
				out = append(out, v)
			}
			return yield(out, mult), nil
		})
		if err != nil {
			streamErr = err
		}
	}
	keyCols := make([]int, len(sp.keys))
	for i := range sp.keys {
		keyCols[i] = i
	}
	aggs := make([]exec.Agg, len(sp.aggs))
	for i := range sp.aggs {
		aggs[i] = exec.Agg{Func: sp.aggs[i].fn, Col: len(sp.keys) + i}
	}
	var rows []prodRow
	var groupErr error
	for g := range exec.GroupAggregate(pre, keyCols, aggs, ev.conv) {
		if streamErr != nil {
			break
		}
		pass := true
		for i := range sp.aggFilters {
			tv, err := sp.aggFilters[i].eval(ev, g, e)
			if err != nil {
				groupErr = err
				break
			}
			if !tv.Holds() {
				pass = false
				break
			}
		}
		if groupErr != nil {
			break
		}
		if !pass {
			continue
		}
		assign := make(map[string]value.Value, len(sp.producers))
		conflict := false
		for _, p := range sp.producers {
			v, err := p.term.eval(ev, g, e)
			if err != nil {
				groupErr = err
				break
			}
			if prev, dup := assign[p.attr]; dup {
				if value.Eq.Apply(prev, v) != value.True {
					conflict = true
					break
				}
				continue
			}
			assign[p.attr] = v
		}
		if groupErr != nil {
			break
		}
		if conflict {
			continue
		}
		rows = append(rows, prodRow{assign: assign, weight: e.weight})
	}
	if streamErr != nil {
		return nil, streamErr
	}
	if groupErr != nil {
		return nil, groupErr
	}
	return rows, nil
}

// ExplainCollection validates col and renders the tuple-level
// compilation of every quantifier scope reachable in its body: the
// physical pipeline for compiled scopes, or the reason a scope stays on
// environment enumeration. Recursive definitions render as one fixpoint
// with their whole group; the views a definition reads follow it, each
// once. Scopes of nested collection sources are summarized by their own
// evaluation and not expanded. base, when non-nil, replaces cat's own
// base relations, as for EvalPrepared.
func ExplainCollection(col *alt.Collection, cat *Catalog, conv convention.Conventions, base map[string]*relation.Relation) (string, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return "", err
	}
	ev := newEvaluator(cat, conv)
	if base != nil {
		ev.base = base
	}
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
		// per-round delta pipelines) instead of the flat scope walk.
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
// link.
func (ev *evaluator) explainScopes(f alt.Formula, b *strings.Builder) error {
	switch x := f.(type) {
	case *alt.Quantifier:
		if err := ev.explainScope(x, b, 0); err != nil {
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

// explainScope renders one scope: its compiled pipeline, or why it stays
// on environment enumeration.
func (ev *evaluator) explainScope(q *alt.Quantifier, b *strings.Builder, depth int) error {
	si, err := ev.scopeInfoFor(q)
	if err != nil {
		return err
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sscope %s:\n", pad, quantHeader(q))
	if sp := ev.scopePlanFor(si); sp != nil {
		sp.explain(b, depth+1)
	} else {
		fmt.Fprintf(b, "%s  (environment enumeration: %s)\n", pad, si.planReason)
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

// explain renders the compiled pipeline, one operator per line.
func (sp *scopePlan) explain(b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	for i := range sp.steps {
		s := &sp.steps[i]
		b.WriteString(pad)
		switch {
		case s.isCon:
			fmt.Fprintf(b, "Const [%s] = %s\n", s.b.Var, s.conVal)
		case len(s.probes) > 0:
			strs := make([]string, len(s.probes))
			for j, p := range s.probes {
				strs[j] = p.str
			}
			fmt.Fprintf(b, "IndexJoin %s [%s] probe(%s)\n", s.b.Rel, s.b.Var, strings.Join(strs, ", "))
		default:
			fmt.Fprintf(b, "Scan %s [%s]\n", s.b.Rel, s.b.Var)
		}
		for _, fl := range sp.filters {
			if fl.after == i {
				fmt.Fprintf(b, "%sFilter (%s)\n", pad, fl.str)
			}
		}
	}
	if sp.grouped {
		keyStrs := make([]string, len(sp.keys))
		for i, k := range sp.keys {
			keyStrs[i] = k.str
		}
		aggStrs := make([]string, len(sp.aggs))
		for i := range sp.aggs {
			aggStrs[i] = sp.aggs[i].agg.String()
		}
		fmt.Fprintf(b, "%sGroupAggregate keys=[%s] aggs=[%s]\n",
			pad, strings.Join(keyStrs, ", "), strings.Join(aggStrs, ", "))
		for _, p := range sp.aggFilters {
			fmt.Fprintf(b, "%sFilter (%s)\n", pad, p.str)
		}
	}
	if len(sp.producers) > 0 {
		strs := make([]string, len(sp.producers))
		for i, p := range sp.producers {
			strs[i] = fmt.Sprintf("%s = %s", p.attr, p.term.str)
		}
		fmt.Fprintf(b, "%sProduce {%s}\n", pad, strings.Join(strs, ", "))
	}
}
