package eval

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// Eval validates, links, and evaluates an ARC collection against a
// catalog under the given conventions, returning the result relation: it
// is Prepare and one execution of what it prepared.
func Eval(col *alt.Collection, cat *Catalog, conv convention.Conventions) (*relation.Relation, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return nil, err
	}
	return Prepare(col, link, cat, conv, nil, nil).Eval(nil, nil, nil, nil)
}

// EvalReference is Eval by environment enumeration alone: no quantifier
// scope is lowered onto internal/plan, and joins nest loops. It is the
// baseline the differential tests hold Eval to.
func EvalReference(col *alt.Collection, cat *Catalog, conv convention.Conventions) (*relation.Relation, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(cat, conv, nil, nil)
	ev.reference = true
	return ev.evalCollection(col, link, newEnv())
}

// EvalSentence validates and evaluates a Boolean ARC sentence (Section
// 2.5, queries (13)/(14)), returning its truth value. Under 3VL an
// Unknown sentence reports false.
func EvalSentence(s *alt.Sentence, cat *Catalog, conv convention.Conventions) (bool, error) {
	link, err := alt.ValidateSentence(s)
	if err != nil {
		return false, err
	}
	ev := newEvaluator(cat, conv, nil, nil)
	ev.pushLink(link)
	defer ev.popLink()
	tv, err := ev.evalTV(s.Body, newEnv())
	if err != nil {
		return false, err
	}
	return tv.Holds(), nil
}

type evaluator struct {
	cat       *Catalog                      // definitions: views, abstract and external relations
	base      map[string]*relation.Relation // the database instance; read-only
	conv      convention.Conventions
	links     []*alt.Link
	overrides map[string]*relation.Relation // inputs, and a recursive group's relations while it runs
	viewCache map[string]*relation.Relation
	// prep is the collection an execution runs (nil at Prepare and for
	// the references): its scopes and groups are found there first, and
	// it is never written.
	prep *Prepared
	// scopes and groups hold the scopes and recursive groups analyzed by
	// this evaluator: at Prepare all of them, which the Prepared keeps;
	// during an execution the ones prep lacks, such as those nested in a
	// scope that enumerates environments.
	scopes map[*alt.Quantifier]*scopeInfo
	groups map[*alt.Collection]*recGroup
	// read collects, at Prepare, every relation name whose schema the
	// analysis resolved (Prepared.Relations).
	read      map[string]bool
	check     func() error // optional cancellation poll (fixpoint rounds, tuple loops)
	polls     int
	tr        *trace.Trace // optional EXPLAIN ANALYZE record
	reference bool         // enumeration only (EvalReference): no lowered scopes
}

// pollEvery rate-limits the cancellation check of the tuple loops, as
// internal/plan's runCtx.poll does.
const pollEvery = 64

// poll is the cancellation check of a loop over tuples.
func (ev *evaluator) poll() error {
	if ev.check == nil {
		return nil
	}
	if ev.polls++; ev.polls%pollEvery != 0 {
		return nil
	}
	return ev.check()
}

// roundObserver resolves the per-round callback for a named recursive
// computation (nil when untraced).
func (ev *evaluator) roundObserver(name string) func(delta int, elapsed time.Duration) {
	if ev.tr == nil {
		return nil
	}
	return ev.tr.Fixpoint("arc:"+name, name).Observe
}

// newEvaluator is an evaluator over base, cat's own base relations when
// base is nil, with inputs bound through the override slot (they shadow
// base relations of the same name). Its maps are made on first write.
func newEvaluator(cat *Catalog, conv convention.Conventions, base, inputs map[string]*relation.Relation) *evaluator {
	ev := &evaluator{cat: cat, base: base, conv: conv}
	if base == nil {
		ev.base = cat.base
	}
	if len(inputs) > 0 {
		ev.overrides = maps.Clone(inputs)
	}
	return ev
}

// setOverride binds name to rel in the override slot.
func (ev *evaluator) setOverride(name string, rel *relation.Relation) {
	if ev.overrides == nil {
		ev.overrides = map[string]*relation.Relation{}
	}
	ev.overrides[name] = rel
}

func (ev *evaluator) pushLink(l *alt.Link) { ev.links = append(ev.links, l) }
func (ev *evaluator) popLink()             { ev.links = ev.links[:len(ev.links)-1] }
func (ev *evaluator) curLink() *alt.Link   { return ev.links[len(ev.links)-1] }

// prodRow is one produced output row: a partial head assignment with a
// bag multiplicity.
type prodRow struct {
	assign map[string]value.Value
	weight int
}

// evalCollection evaluates a top-level or view collection under its own
// link. A recursive one is computed by least fixed point together with
// the views it is mutually recursive with, whose results are cached on
// the way.
func (ev *evaluator) evalCollection(col *alt.Collection, link *alt.Link, e *env) (*relation.Relation, error) {
	g := ev.groupOf(col, link, false)
	if g == nil {
		ev.pushLink(link)
		defer ev.popLink()
		return ev.evalOnce(col, e)
	}
	return ev.evalGroup(col, g, e)
}

// evalGroup computes the recursive group of col (groupOf), caching the
// other members' relations as views on the way, and returns col's.
func (ev *evaluator) evalGroup(col *alt.Collection, g *recGroup, e *env) (*relation.Relation, error) {
	totals, err := ev.evalRecursive(g, e)
	if err != nil {
		return nil, err
	}
	for _, d := range g.defs[1:] {
		ev.cacheView(d.col.Head.Rel, totals[d.col.Head.Rel])
	}
	return totals[col.Head.Rel], nil
}

// cacheView keeps a view's relation for the rest of the execution.
func (ev *evaluator) cacheView(name string, rel *relation.Relation) {
	if ev.viewCache == nil {
		ev.viewCache = map[string]*relation.Relation{}
	}
	ev.viewCache[name] = rel
}

// evalOnce evaluates a collection body once, producing its relation: it
// collects headStream.
func (ev *evaluator) evalOnce(col *alt.Collection, e *env) (*relation.Relation, error) {
	out := relation.New(col.Head.Rel, col.Head.Attrs...)
	var err error
	for t, weight := range ev.headStream(col, e, &err) {
		out.InsertMult(t, weight)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errStopped is how headStream's emit ends the derivation once its
// consumer stops.
var errStopped = errors.New("eval: stream stopped")

// headStream is the result of a collection evaluated once, as a stream:
// headTuples over its body, under set conventions each distinct tuple
// once (exec.Dedup, unless the body's plan yields them distinct already:
// distinctHead), under bags every derivation with its weight — so equal
// tuples may arrive apart. A yielded tuple is valid until yield returns.
// Stopping the stream stops the derivation; an evaluation error stops it
// too and is stored in *errp. The caller has pushed col's link.
func (ev *evaluator) headStream(col *alt.Collection, e *env, errp *error) exec.Seq {
	seq := func(yield func(relation.Tuple, int) bool) {
		err := ev.headTuples(col, col.Body, e, nil, func(t relation.Tuple, weight int) error {
			if !yield(t, weight) {
				return errStopped
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopped) {
			*errp = fmt.Errorf("%s: %w", col.Head.Rel, err)
		}
	}
	if ev.conv.Semantics == convention.Set && !ev.distinctHead(col) {
		return exec.Dedup(seq, ev.prep.headHint(col))
	}
	return seq
}

// distinctHead reports whether col's body is one lowered scope that
// streams col's head tuples (headTuples) on a plan whose rows are
// distinct (plan.DistinctRows, decided when the scope was lowered).
func (ev *evaluator) distinctHead(col *alt.Collection) bool {
	q, ok := col.Body.(*alt.Quantifier)
	if !ok {
		return false
	}
	si, err := ev.scopeInfoFor(q)
	return err == nil && si.scope != nil && si.scope.distinct && slices.Equal(si.scope.attrs, col.Head.Attrs)
}

// headTuples derives the head tuples of col that formula f of its body
// generates, with their bag weights; emit must copy what it keeps. It is
// the one place produced rows become tuples, for a collection evaluated
// once and for every rule of a fixpoint alike. A disjunction is the
// concatenation of its branches; a quantifier whose lowered scope
// assigns every head attribute exactly once streams tuples straight off
// its plan; other shapes go through the production path and build
// assignment rows. runs, when not nil, keeps the execution of each
// lowered scope across calls (runScope).
func (ev *evaluator) headTuples(col *alt.Collection, f alt.Formula, e *env, runs map[*arcScope]*scopeRun, emit func(t relation.Tuple, weight int) error) error {
	if or, ok := f.(*alt.Or); ok {
		for _, k := range or.Kids {
			if err := ev.headTuples(col, k, e, runs, emit); err != nil {
				return err
			}
		}
		return nil
	}
	base := &env{vars: e.vars, weight: 1}
	if q, ok := f.(*alt.Quantifier); ok {
		si, err := ev.scopeInfoFor(q)
		if err != nil {
			return err
		}
		if sc := si.scope; sc != nil && slices.Equal(sc.attrs, col.Head.Attrs) {
			return ev.runScope(sc, base, runs, emit)
		}
	}
	attrs := col.Head.Attrs
	t := make(relation.Tuple, len(attrs))
	rows, err := ev.produce(f, base, true)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.weight <= 0 {
			continue
		}
		for i, a := range attrs {
			v, ok := r.assign[a]
			if !ok {
				return fmt.Errorf("head attribute %q not assigned for a produced row", a)
			}
			t[i] = v
		}
		if err := emit(t, r.weight); err != nil {
			return err
		}
	}
	return nil
}

// produce yields the stream of head-assignment rows of a formula. gen is
// true on the generating path from the collection body: a generating
// quantifier contributes one row per satisfying binding combination (bag
// behaviour), whereas a nested quantifier's production is deduplicated —
// the semijoin-like behaviour the paper describes for nested
// comprehensions under bag semantics (Section 2.7).
func (ev *evaluator) produce(f alt.Formula, e *env, gen bool) ([]prodRow, error) {
	switch x := f.(type) {
	case nil:
		return []prodRow{{assign: map[string]value.Value{}, weight: e.weight}}, nil
	case *alt.Or:
		var out []prodRow
		for _, k := range x.Kids {
			rows, err := ev.produce(k, e, gen)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	case *alt.And:
		rows := []prodRow{{assign: map[string]value.Value{}, weight: 1}}
		for _, k := range x.Kids {
			kidRows, err := ev.produce(k, e, gen)
			if err != nil {
				return nil, err
			}
			rows = mergeRows(rows, kidRows)
			if len(rows) == 0 {
				return nil, nil
			}
		}
		return scaleRows(rows, 1), nil
	case *alt.Quantifier:
		return ev.produceQuant(x, e, gen)
	case *alt.Pred:
		return ev.producePred(x, e)
	case *alt.IsNull, *alt.Not:
		tv, err := ev.evalTV(f, e)
		if err != nil {
			return nil, err
		}
		if tv.Holds() {
			return []prodRow{{assign: map[string]value.Value{}, weight: 1}}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("cannot produce from %T", f)
}

func (ev *evaluator) producePred(p *alt.Pred, e *env) ([]prodRow, error) {
	link := ev.curLink()
	if ev.effPredKind(p) == alt.PredAssignment {
		head := p.Left
		other := p.Right
		if link.HeadSide[p] == 1 {
			head, other = p.Right, p.Left
		}
		attr := head.(*alt.AttrRef).Attr
		v, err := ev.evalTerm(other, e)
		if err != nil {
			return nil, err
		}
		return []prodRow{{assign: map[string]value.Value{attr: v}, weight: 1}}, nil
	}
	tv, err := ev.evalTV(p, e)
	if err != nil {
		return nil, err
	}
	if tv.Holds() {
		return []prodRow{{assign: map[string]value.Value{}, weight: 1}}, nil
	}
	return nil, nil
}

// mergeRows merges two production streams conjunctively: assignments
// combine; conflicting assignments to the same attribute act as an
// (unsatisfied) equality constraint and drop the row.
func mergeRows(a, b []prodRow) []prodRow {
	var out []prodRow
	for _, x := range a {
		for _, y := range b {
			merged := make(map[string]value.Value, len(x.assign)+len(y.assign))
			ok := true
			for k, v := range x.assign {
				merged[k] = v
			}
			for k, v := range y.assign {
				if prev, dup := merged[k]; dup {
					if value.Eq.Apply(prev, v) != value.True {
						ok = false
						break
					}
					continue
				}
				merged[k] = v
			}
			if ok {
				out = append(out, prodRow{assign: merged, weight: x.weight * y.weight})
			}
		}
	}
	return out
}

func scaleRows(rows []prodRow, w int) []prodRow {
	if w == 1 {
		return rows
	}
	for i := range rows {
		rows[i].weight *= w
	}
	return rows
}

func dedupRows(rows []prodRow) []prodRow {
	seen := map[string]bool{}
	var out []prodRow
	for _, r := range rows {
		k := assignKey(r.assign)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, prodRow{assign: r.assign, weight: 1})
	}
	return out
}

func (ev *evaluator) produceQuant(q *alt.Quantifier, e *env, gen bool) ([]prodRow, error) {
	si, err := ev.scopeInfoFor(q)
	if err != nil {
		return nil, err
	}
	if sc := si.scope; sc != nil {
		rows, err := sc.produce(ev, e)
		if err != nil {
			return nil, err
		}
		if !gen {
			rows = dedupRows(rows)
		}
		return rows, nil
	}
	envs, err := ev.satisfyingEnvs(si, e)
	if err != nil {
		return nil, err
	}
	var rows []prodRow
	if q.Grouping != nil {
		groups, err := ev.groupEnvs(si, envs, e)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			row, ok, err := ev.groupRow(si, g, e)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, row)
			}
		}
	} else {
		for _, be := range envs {
			sub, err := ev.mergeProducers(si.producers, be, nil, gen)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				rows = append(rows, prodRow{assign: s.assign, weight: s.weight * be.weight})
			}
		}
	}
	if !gen {
		rows = dedupRows(rows)
	}
	return rows, nil
}

// group is one γ partition of a scope's satisfying environments.
type group struct {
	envs []*env
}

func (ev *evaluator) groupEnvs(si *scopeInfo, envs []*env, outer *env) ([]*group, error) {
	keys := si.q.Grouping.Keys
	if len(keys) == 0 {
		// γ∅: exactly one group, even over zero tuples ("group by true").
		return []*group{{envs: envs}}, nil
	}
	if len(envs) == 0 {
		return nil, nil // keyed grouping over zero rows yields zero groups
	}
	index := map[string]int{}
	var groups []*group
	for _, e := range envs {
		k := ""
		for _, key := range keys {
			v, err := ev.evalTerm(key, e)
			if err != nil {
				return nil, err
			}
			k += v.Key() + "\x1f"
		}
		if i, ok := index[k]; ok {
			groups[i].envs = append(groups[i].envs, e)
		} else {
			index[k] = len(groups)
			groups = append(groups, &group{envs: []*env{e}})
		}
	}
	return groups, nil
}

// groupRow evaluates the aggregate and producer predicates of one group,
// returning the produced row (if the group passes all aggregate
// comparison predicates).
func (ev *evaluator) groupRow(si *scopeInfo, g *group, outer *env) (prodRow, bool, error) {
	aggVals := map[*alt.Agg]value.Value{}
	for _, a := range si.aggTerms {
		v, err := ev.computeAgg(a, g.envs)
		if err != nil {
			return prodRow{}, false, err
		}
		aggVals[a] = v
	}
	rep := outer
	if len(g.envs) > 0 {
		rep = g.envs[0]
	}
	for _, p := range si.aggFilters {
		tv, err := ev.evalPredTVAgg(p, rep, aggVals)
		if err != nil {
			return prodRow{}, false, err
		}
		if !tv.Holds() {
			return prodRow{}, false, nil
		}
	}
	sub, err := ev.mergeProducers(si.producers, rep, aggVals, false)
	if err != nil {
		return prodRow{}, false, err
	}
	if len(sub) == 0 {
		return prodRow{}, false, nil
	}
	if len(sub) > 1 {
		return prodRow{}, false, fmt.Errorf("grouping scope produced %d rows for one group; producers must be group-invariant", len(sub))
	}
	return prodRow{assign: sub[0].assign, weight: outer.weight}, true, nil
}

// mergeProducers combines the producer elements of a scope for one
// environment into assignment rows.
func (ev *evaluator) mergeProducers(producers []alt.Formula, e *env, aggVals map[*alt.Agg]value.Value, gen bool) ([]prodRow, error) {
	rows := []prodRow{{assign: map[string]value.Value{}, weight: 1}}
	link := ev.curLink()
	for _, pf := range producers {
		var kidRows []prodRow
		switch x := pf.(type) {
		case *alt.Pred:
			head := x.Left
			other := x.Right
			if link.HeadSide[x] == 1 {
				head, other = x.Right, x.Left
			}
			attr := head.(*alt.AttrRef).Attr
			v, err := ev.evalTermAgg(other, e, aggVals)
			if err != nil {
				return nil, err
			}
			kidRows = []prodRow{{assign: map[string]value.Value{attr: v}, weight: 1}}
		case *alt.Quantifier:
			sub, err := ev.produceQuant(x, e, false)
			if err != nil {
				return nil, err
			}
			kidRows = sub
		case *alt.Or, *alt.And:
			sub, err := ev.produce(pf, e, false)
			if err != nil {
				return nil, err
			}
			kidRows = dedupRows(sub)
		default:
			return nil, fmt.Errorf("unsupported producing subformula %T", pf)
		}
		rows = mergeRows(rows, kidRows)
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// computeAgg evaluates one aggregate over a group's environments,
// honouring bag weights and the EmptyAggregate convention (Section 2.6).
func (ev *evaluator) computeAgg(a *alt.Agg, envs []*env) (value.Value, error) {
	needSum := a.Func == alt.AggSum || a.Func == alt.AggAvg
	var sum value.Value
	haveAny := false
	count := 0
	distinct := map[string]bool{}
	var minV, maxV value.Value
	for _, e := range envs {
		v, err := ev.evalTerm(a.Arg, e)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			continue // SQL aggregates ignore NULL inputs
		}
		if needSum && !v.IsNumeric() {
			return value.Null(), fmt.Errorf("%s over non-numeric value %v", a.Func, v)
		}
		w := e.weight
		if ev.conv.Semantics == convention.Set {
			w = 1
		}
		count += w
		distinct[v.Key()] = true
		if needSum {
			contrib := v
			if w > 1 {
				c, ok := value.Mul(v, value.Int(int64(w)))
				if !ok {
					return value.Null(), fmt.Errorf("%s over non-numeric value %v", a.Func, v)
				}
				contrib = c
			}
			if !haveAny {
				sum = contrib
			} else {
				s, ok := value.Add(sum, contrib)
				if !ok {
					return value.Null(), fmt.Errorf("%s over non-numeric value %v", a.Func, v)
				}
				sum = s
			}
		}
		if !haveAny {
			minV, maxV = v, v
		} else {
			if c, ok := v.Compare(minV); ok && c < 0 {
				minV = v
			}
			if c, ok := v.Compare(maxV); ok && c > 0 {
				maxV = v
			}
		}
		haveAny = true
	}
	empty := count == 0
	switch a.Func {
	case alt.AggCount:
		return value.Int(int64(count)), nil
	case alt.AggCountDistinct:
		return value.Int(int64(len(distinct))), nil
	case alt.AggSum:
		if empty {
			if ev.conv.EmptyAggregate == convention.ZeroOnEmpty {
				return value.Int(0), nil
			}
			return value.Null(), nil
		}
		return sum, nil
	case alt.AggAvg:
		if empty {
			return value.Null(), nil
		}
		v, _ := value.Div(value.Float(sum.AsFloat()), value.Int(int64(count)))
		return v, nil
	case alt.AggMin:
		if empty {
			return value.Null(), nil
		}
		return minV, nil
	case alt.AggMax:
		if empty {
			return value.Null(), nil
		}
		return maxV, nil
	}
	return value.Null(), fmt.Errorf("unknown aggregate %v", a.Func)
}

// satisfyingEnvs enumerates the join of a scope's bindings (with ON
// conditions at outer-join nodes) and filters by WHERE predicates and
// boolean subformulas. Environments are weighted relative to e.
func (ev *evaluator) satisfyingEnvs(si *scopeInfo, e *env) ([]*env, error) {
	base := &env{vars: e.vars, weight: 1}
	envs, err := ev.enumNode(si.tree, base, si, map[string]bool{})
	if err != nil {
		return nil, err
	}
	var out []*env
	for _, be := range envs {
		ok := true
		for _, p := range si.where {
			tv, err := ev.evalTV(p, be)
			if err != nil {
				return nil, err
			}
			if !tv.Holds() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, f := range si.filters {
			tv, err := ev.evalTV(f, be)
			if err != nil {
				return nil, err
			}
			if !tv.Holds() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, be)
		}
	}
	return out, nil
}

// evalTV evaluates a formula as a truth value in 3VL (mapped to 2VL when
// the convention says so).
func (ev *evaluator) evalTV(f alt.Formula, e *env) (value.TV, error) {
	switch x := f.(type) {
	case nil:
		return value.True, nil
	case *alt.And:
		tv := value.True
		for _, k := range x.Kids {
			kt, err := ev.evalTV(k, e)
			if err != nil {
				return value.False, err
			}
			tv = tv.And(kt)
			if tv == value.False {
				return value.False, nil
			}
		}
		return tv, nil
	case *alt.Or:
		tv := value.False
		for _, k := range x.Kids {
			kt, err := ev.evalTV(k, e)
			if err != nil {
				return value.False, err
			}
			tv = tv.Or(kt)
			if tv == value.True {
				return value.True, nil
			}
		}
		return tv, nil
	case *alt.Not:
		kt, err := ev.evalTV(x.Kid, e)
		if err != nil {
			return value.False, err
		}
		return kt.Not(), nil
	case *alt.Pred:
		return ev.evalPredTVAgg(x, e, nil)
	case *alt.IsNull:
		v, err := ev.evalTerm(x.Arg, e)
		if err != nil {
			return value.False, err
		}
		return value.TVFromBool(v.IsNull() != x.Negated), nil
	case *alt.Quantifier:
		return ev.quantTV(x, e)
	}
	return value.False, fmt.Errorf("cannot evaluate %T as a truth value", f)
}

// quantTV evaluates a quantifier as an existential test. Grouped scopes
// are true when at least one group passes every aggregate comparison
// predicate (how sentences (13)/(14) and the COUNT bug version 1 work).
func (ev *evaluator) quantTV(q *alt.Quantifier, e *env) (value.TV, error) {
	si, err := ev.scopeInfoFor(q)
	if err != nil {
		return value.False, err
	}
	if len(si.producers) > 0 {
		return value.False, fmt.Errorf("quantifier with head assignments used as a boolean filter")
	}
	envs, err := ev.satisfyingEnvs(si, e)
	if err != nil {
		return value.False, err
	}
	if q.Grouping == nil {
		return value.TVFromBool(len(envs) > 0), nil
	}
	groups, err := ev.groupEnvs(si, envs, e)
	if err != nil {
		return value.False, err
	}
	for _, g := range groups {
		aggVals := map[*alt.Agg]value.Value{}
		pass := true
		for _, a := range si.aggTerms {
			v, err := ev.computeAgg(a, g.envs)
			if err != nil {
				return value.False, err
			}
			aggVals[a] = v
		}
		rep := e
		if len(g.envs) > 0 {
			rep = g.envs[0]
		}
		for _, p := range si.aggFilters {
			tv, err := ev.evalPredTVAgg(p, rep, aggVals)
			if err != nil {
				return value.False, err
			}
			if !tv.Holds() {
				pass = false
				break
			}
		}
		if pass {
			return value.True, nil
		}
	}
	return value.False, nil
}

// evalPredTVAgg evaluates a predicate with optional precomputed aggregate
// values, mapping Unknown to False under the 2VL convention.
func (ev *evaluator) evalPredTVAgg(p *alt.Pred, e *env, aggVals map[*alt.Agg]value.Value) (value.TV, error) {
	l, err := ev.evalTermAgg(p.Left, e, aggVals)
	if err != nil {
		return value.False, err
	}
	r, err := ev.evalTermAgg(p.Right, e, aggVals)
	if err != nil {
		return value.False, err
	}
	tv := p.Op.Apply(l, r)
	if tv == value.Unknown && ev.conv.NullLogic == convention.TwoValued {
		return value.False, nil
	}
	return tv, nil
}
