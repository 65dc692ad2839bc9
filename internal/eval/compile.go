package eval

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file is the tuple-level compilation of quantifier scopes: the ARC
// analogue of internal/plan's SQL lowering. A scope whose join tree is a
// flat inner join over relation leaves (base relations, views, recursion
// overrides, constant leaves) compiles into an indexed nested-loop
// pipeline over relation tuples — probing the lazy hash indexes with the
// scope's equality predicates, filtering as early as the referenced
// leaves are bound, and streaming grouped scopes through
// exec.GroupAggregate — instead of materializing per-row environment
// maps. Two shapes nest a scope inside the pipeline of the scope around
// it, chosen from the shape alone (decorrelate.go): a γ∅ nested
// collection correlated through equalities is grouped once on the
// correlation attributes and probed per outer tuple (group-by + left
// outer join, the count-bug-safe rewrite), and an ∃/¬∃ subformula probes
// its inner scope from the outer tuple and stops at the first match.
// Scopes outside the fragment (outer-join annotations, externals,
// abstract relations, nested collections that are not γ∅ or correlate
// through anything but equalities, grouped or disjunctive boolean
// subformulas, producing subformulas) keep the environment enumeration
// path and EXPLAIN names the reason; results are identical, which the
// qgen differential suites verify.

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
	isCon  bool         // constant leaf (join-annotation constant)
	conVal value.Value  // value of a constant leaf
	lookup *groupLookup // γ∅ nested collection leaf, decorrelated (decorrelate.go)
	attrs  []string
	start  int // first tuple column of this leaf
	probes []planProbe
	// probeOff is where this leaf's probe key starts in the per-run key
	// buffer (scopePlan.nprobes long).
	probeOff int
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

// scopePlan is the compiled form of one quantifier scope. Its tuple is
// [prefix..., leaf columns...]: the prefix is the tuple of the compiled
// scope this one is an existence filter of (empty everywhere else), so a
// reference to an enclosing binding is a column read like any other.
type scopePlan struct {
	si      *scopeInfo
	steps   []planStep
	ncols   int
	filters []planFilter
	nprobes int
	// exists holds the scope's ∃/¬∃ subformulas. They run on complete
	// tuples after filters, in order, as satisfyingEnvs does.
	exists []planExists
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
		si.plan, si.planReason = ev.compileScope(si, nil)
	}
	return si.plan
}

// scopeCompiler carries compile-time state for one scope.
type scopeCompiler struct {
	ev     *evaluator
	si     *scopeInfo
	sp     *scopePlan
	link   *alt.Link
	colOf  map[string]map[string]int // var → attr → tuple column
	stepOf map[string]int            // var → step index
	// outer is the compiler of the scope this one is an existence filter
	// of: its columns are this scope's tuple prefix.
	outer *scopeCompiler
	// closed scopes run once per execution, not once per outer tuple or
	// environment, so a reference that leaves them cannot compile.
	closed bool
}

// compileScope lowers a scope or reports why it cannot (the reason shows
// up in EXPLAIN output). outer is non-nil for the scope of an existence
// filter.
func (ev *evaluator) compileScope(si *scopeInfo, outer *scopeCompiler) (*scopePlan, string) {
	if si.tree.isLeaf() || si.tree.kind != alt.JoinInner || len(si.tree.kids) == 0 {
		return nil, "join annotation with outer joins"
	}
	sp := &scopePlan{si: si}
	c := &scopeCompiler{
		ev:     ev,
		si:     si,
		sp:     sp,
		link:   ev.curLink(),
		colOf:  map[string]map[string]int{},
		stepOf: map[string]int{},
		outer:  outer,
		closed: si.closed,
	}
	if outer != nil {
		sp.ncols = outer.sp.ncols
		c.closed = c.closed || outer.closed
	}
	kids := si.tree.kids
	if i := slices.IndexFunc(kids, func(k *joinNode) bool { return k.leaf != nil && k.leaf == si.lead }); i > 0 {
		kids = slices.Concat(kids[i:i+1], kids[:i], kids[i+1:])
	}
	for _, kid := range kids {
		if !kid.isLeaf() {
			return nil, "nested join annotation"
		}
		b := kid.leaf
		step := planStep{b: b, start: sp.ncols}
		if v, isConst := c.link.ConstOfBinding[b]; isConst {
			step.isCon = true
			step.conVal = v
			step.attrs = []string{"val"}
		} else if b.Sub != nil {
			lk, reason := c.compileLookup(b)
			if lk == nil {
				return nil, reason
			}
			step.lookup = lk
			step.attrs = b.Sub.Head.Attrs
		} else {
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
	for _, f := range si.filters {
		ex, reason := c.compileExists(f)
		if ex.inner == nil {
			return nil, reason
		}
		sp.exists = append(sp.exists, ex)
	}

	// Equality predicates feed index probes, exactly like probeInputs:
	// the other side must be evaluable before the probed leaf binds.
	for i := range sp.steps {
		step := &sp.steps[i]
		if step.isCon || step.lookup != nil {
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
		step.probeOff = sp.nprobes
		sp.nprobes += len(step.probes)
	}

	// Grouping keys: the declared ones, then the correlation attributes
	// of a decorrelated scope. Aggregates follow them in the group tuple.
	q := si.q
	sp.grouped = q.Grouping != nil
	if sp.grouped {
		for _, k := range slices.Concat(q.Grouping.Keys, si.corrKeys) {
			term, ok := c.compileTerm(k)
			if !ok {
				return nil, fmt.Sprintf("grouping key %s outside the fragment", k)
			}
			sp.keys = append(sp.keys, term)
		}
	}

	// Producers must all be head assignments with compilable sources.
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

// resolveRef says where an attribute reference reads from: a tuple column
// — of this scope (pos is the step that binds it) or of the prefix an
// enclosing compiled scope supplies (pos -1) — or, with col -1, the
// environment. Head references, bindings no step has laid out yet, and
// references that leave a closed scope are rejected.
func (c *scopeCompiler) resolveRef(r *alt.AttrRef) (col, pos int, ok bool) {
	res, known := c.link.Refs[r]
	if !known || res.Kind != alt.RefBinding {
		return 0, 0, false
	}
	q := c.link.BindingQuantifier[res.Binding]
	for cc := c; cc != nil; cc = cc.outer {
		if q != cc.si.q {
			continue
		}
		col, okCol := cc.colOf[r.Var][r.Attr]
		if !okCol {
			return 0, 0, false
		}
		if cc != c {
			return col, -1, true
		}
		return col, c.stepOf[r.Var], true
	}
	if c.closed {
		return 0, 0, false
	}
	return -1, -1, true // correlation beyond the compiled scopes: evaluate via the env
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
		col, pos, ok := c.resolveRef(x)
		if !ok {
			return planTerm{}, false
		}
		if col < 0 {
			ref := x
			return planTerm{
				eval: func(ev *evaluator, _ relation.Tuple, e *env) (value.Value, error) {
					return ev.evalTermAgg(ref, e, nil)
				},
				pos: -1,
				str: x.String(),
			}, true
		}
		return planTerm{
			eval: func(_ *evaluator, t relation.Tuple, _ *env) (value.Value, error) { return t[col], nil },
			pos:  pos,
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
		if res := c.link.Refs[x]; res.Kind != alt.RefBinding || c.link.BindingQuantifier[res.Binding] == c.si.q {
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
		col := len(sp.keys) + idx
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
// filters as early as their inputs bind. prefix is the enclosing scope's
// tuple when this scope is an existence filter. f returns false to stop.
func (sp *scopePlan) each(ev *evaluator, e *env, prefix relation.Tuple, f func(t relation.Tuple, mult int) (bool, error)) error {
	return sp.eachErr(ev, e, prefix, func(t relation.Tuple, mult int, rowErr error) (bool, error) {
		if rowErr != nil {
			return false, rowErr
		}
		return f(t, mult)
	})
}

// eachErr is each for a consumer that decides what an evaluation error
// on a complete tuple means: f receives the tuple and the error instead
// of the enumeration stopping with it.
func (sp *scopePlan) eachErr(ev *evaluator, e *env, prefix relation.Tuple, f func(t relation.Tuple, mult int, rowErr error) (bool, error)) error {
	t := make(relation.Tuple, sp.ncols)
	copy(t, prefix)
	// One probe-key buffer per run: a leaf's key is dead once its probe
	// returns, and deeper leaves use their own stretch of it.
	keyCols, keyVals := make([]int, sp.nprobes), make([]value.Value, sp.nprobes)
	bag := ev.conv.Semantics == convention.Bag
	var walk func(step int, mult int) (bool, error)
	walk = func(step int, mult int) (bool, error) {
		if step == len(sp.steps) {
			// Authoritative pass on the complete tuple: predicates, then
			// boolean subformulas, in order with short-circuiting —
			// identical to the enumeration path, including which errors
			// can surface.
			for i := range sp.filters {
				tv, err := sp.filters[i].eval(ev, t, e)
				if err != nil {
					return f(t, mult, err)
				}
				if !tv.Holds() {
					return true, nil
				}
			}
			for i := range sp.exists {
				ok, err := sp.exists[i].holds(ev, t, e)
				if err != nil {
					return f(t, mult, err)
				}
				if !ok {
					return true, nil
				}
			}
			return f(t, mult, nil)
		}
		s := &sp.steps[step]
		extend := func(tup relation.Tuple, m int) (bool, error) {
			if err := ev.poll(); err != nil {
				return false, err
			}
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
		if s.lookup != nil {
			row, err := s.lookup.get(ev, t, e)
			if err != nil || row == nil {
				return err == nil, err
			}
			return extend(row, 1)
		}
		rel, err := sp.resolveLeaf(ev, s)
		if err != nil {
			return false, err
		}
		end := s.probeOff + len(s.probes)
		cols, vals := keyCols[s.probeOff:s.probeOff:end], keyVals[s.probeOff:s.probeOff:end]
		for _, p := range s.probes {
			v, err := p.src.eval(ev, t, e)
			if err != nil {
				continue // not evaluable; scan covers it
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

// eachRow streams the tuples the producers read, with their weights: the
// satisfying scope tuples, or for a grouped scope the groups that pass
// its aggregate predicates.
func (sp *scopePlan) eachRow(ev *evaluator, e *env, f func(t relation.Tuple, mult int) (bool, error)) error {
	if !sp.grouped {
		return sp.each(ev, e, nil, f)
	}
	return sp.eachGroup(ev, e, nil, func(g relation.Tuple) (bool, error) {
		if pass, err := sp.groupPasses(ev, g, e); err != nil || !pass {
			return err == nil, err
		}
		return f(g, e.weight)
	})
}

// directHeadCols maps head attributes to producer indexes when the plan
// assigns each head attribute exactly once; ok is false when the shapes
// differ (extra, missing, or duplicated assignments), sending the
// formula through the production path instead.
func (sp *scopePlan) directHeadCols(attrs []string) ([]int, bool) {
	if len(sp.producers) != len(attrs) {
		return nil, false
	}
	byAttr := make(map[string]int, len(sp.producers))
	for i, p := range sp.producers {
		if _, dup := byAttr[p.attr]; dup {
			return nil, false
		}
		byAttr[p.attr] = i
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := byAttr[a]
		if !ok {
			return nil, false
		}
		cols[i] = j
	}
	return cols, true
}

// produce runs the compiled scope for one outer environment, returning
// the produced head-assignment rows (the tuple-level replacement for
// satisfyingEnvs + mergeProducers / groupEnvs + groupRow) — for nested
// producing quantifiers and heads the scope does not assign one-to-one;
// everything else streams head tuples (headTuples).
func (sp *scopePlan) produce(ev *evaluator, e *env) ([]prodRow, error) {
	var rows []prodRow
	err := sp.eachRow(ev, e, func(t relation.Tuple, mult int) (bool, error) {
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

// execAggs is the scope's aggregate list in exec.GroupAggregate's terms:
// aggregate i reads column len(keys)+i of the projected tuple.
func (sp *scopePlan) execAggs() []exec.Agg {
	aggs := make([]exec.Agg, len(sp.aggs))
	for i := range sp.aggs {
		aggs[i] = exec.Agg{Func: sp.aggs[i].fn, Col: len(sp.keys) + i}
	}
	return aggs
}

// eachGroup is the scope's γ: the satisfying tuples' grouping keys and
// aggregate inputs stream through exec.GroupAggregate, and f receives
// every group as [keys..., aggregates...]. A tuple that cannot be
// evaluated stops the stream with its error — unless rowErr is non-nil
// and takes the error with the tuple's keys, which is how a decorrelated
// scope keeps one group's error away from the others.
func (sp *scopePlan) eachGroup(ev *evaluator, e *env, rowErr func(keys relation.Tuple, err error), f func(g relation.Tuple) (bool, error)) error {
	var streamErr error
	pre := func(yield func(relation.Tuple, int) bool) {
		// GroupAggregate copies key values and folds aggregate inputs
		// immediately, so the projection scratch tuple is reusable.
		scratch := make(relation.Tuple, 0, len(sp.keys)+len(sp.aggs))
		streamErr = sp.eachErr(ev, e, nil, func(t relation.Tuple, mult int, bad error) (bool, error) {
			out := scratch[:0]
			for _, k := range sp.keys {
				v, err := k.eval(ev, t, e)
				if err != nil {
					return false, err
				}
				out = append(out, v)
			}
			for i := 0; i < len(sp.aggs) && bad == nil; i++ {
				a := &sp.aggs[i]
				v, err := a.arg.eval(ev, t, e)
				if err == nil && a.numeric && !v.IsNull() && !v.IsNumeric() {
					err = fmt.Errorf("%s over non-numeric value %v", a.agg.Func, v)
				}
				bad = err
				out = append(out, v)
			}
			if bad != nil {
				if rowErr == nil {
					return false, bad
				}
				rowErr(out[:len(sp.keys)], bad)
				return true, nil
			}
			return yield(out, mult), nil
		})
	}
	keyCols := make([]int, len(sp.keys))
	for i := range sp.keys {
		keyCols[i] = i
	}
	var groupErr error
	for g := range exec.GroupAggregate(pre, keyCols, sp.execAggs(), ev.conv) {
		if streamErr != nil {
			break
		}
		if groupErr = ev.poll(); groupErr != nil {
			break
		}
		cont, err := f(g)
		if groupErr = err; err != nil || !cont {
			break
		}
	}
	if streamErr != nil {
		return streamErr
	}
	return groupErr
}

// groupPasses evaluates the scope's aggregate predicates on one group.
func (sp *scopePlan) groupPasses(ev *evaluator, g relation.Tuple, e *env) (bool, error) {
	for i := range sp.aggFilters {
		tv, err := sp.aggFilters[i].eval(ev, g, e)
		if err != nil || !tv.Holds() {
			return false, err
		}
	}
	return true, nil
}

// ExplainCollection validates col and renders the tuple-level
// compilation of every quantifier scope reachable in its body: the
// physical pipeline for compiled scopes, or the reason a scope stays on
// environment enumeration. Recursive definitions render as one fixpoint
// with their whole group; the views a definition reads follow it, each
// once. A compiled scope renders the scopes nested in its pipeline
// (grouped lookups, existence filters) beneath their operators; the
// nested collection sources of an enumerated scope are summarized by
// their own evaluation and not expanded. base, when non-nil, replaces
// cat's own base relations, as for EvalPrepared.
func ExplainCollection(col *alt.Collection, cat *Catalog, conv convention.Conventions, base map[string]*relation.Relation) (string, error) {
	return ExplainAnalyzed(col, cat, conv, base, nil)
}

// ExplainAnalyzed is ExplainCollection with the counters the execution
// traced by tr recorded (EvalPrepared) next to the grouped lookups and
// existence filters.
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
// link. The scopes in the body of a compiled scope are part of its
// pipeline and already rendered there.
func (ev *evaluator) explainScopes(f alt.Formula, b *strings.Builder) error {
	switch x := f.(type) {
	case *alt.Quantifier:
		if err := ev.explainScope(x, b, 0); err != nil {
			return err
		}
		if ev.scopeCache[x].plan != nil {
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

// describe renders a relation leaf without its operator name.
func (s *planStep) describe() string {
	if len(s.probes) == 0 {
		return fmt.Sprintf("%s [%s]", s.b.Rel, s.b.Var)
	}
	strs := make([]string, len(s.probes))
	for j, p := range s.probes {
		strs[j] = p.str
	}
	return fmt.Sprintf("%s [%s] probe(%s)", s.b.Rel, s.b.Var, strings.Join(strs, ", "))
}

// explain renders the compiled pipeline, one operator per line.
func (sp *scopePlan) explain(b *strings.Builder, depth int) { sp.explainFrom(b, depth, 0) }

// explainFrom is explain without the leaves before step from (an
// existence filter's first leaf is its header line).
func (sp *scopePlan) explainFrom(b *strings.Builder, depth, from int) {
	pad := strings.Repeat("  ", depth)
	for i := range sp.steps {
		s := &sp.steps[i]
		if i >= from {
			b.WriteString(pad)
			switch {
			case s.isCon:
				fmt.Fprintf(b, "Const [%s] = %s\n", s.b.Var, s.conVal)
			case s.lookup != nil:
				s.lookup.explain(b, s.b.Var, depth)
			case len(s.probes) > 0:
				fmt.Fprintf(b, "IndexJoin %s\n", s.describe())
			default:
				fmt.Fprintf(b, "Scan %s\n", s.describe())
			}
		}
		for _, fl := range sp.filters {
			if fl.after == i {
				fmt.Fprintf(b, "%sFilter (%s)\n", pad, fl.str)
			}
		}
	}
	for i := range sp.exists {
		sp.exists[i].explain(b, depth)
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
