package eval

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Prepared is an ARC collection analyzed and lowered once, by Prepare,
// against a schema: the scopes of the collection and of the views it
// reads, each lowered onto internal/plan or with the reason it stays on
// environment enumeration, and the recursive groups among them with their
// rules classified. An execution binds relations, parameters and fixpoint
// handles to the plans it holds and runs them. It is never written after
// Prepare but for its size hints, which are atomic, so concurrent
// executions share it.
type Prepared struct {
	col    *alt.Collection
	link   *alt.Link
	cat    *Catalog
	conv   convention.Conventions
	scopes map[*alt.Quantifier]*scopeInfo
	groups map[*alt.Collection]*recGroup
	// sections are the definitions EXPLAIN renders, in order: col, then
	// each view read, depth first.
	sections []recDef
	// reads names, sorted, the relations whose schema the lowering read.
	reads []string
	// heads holds the size hint of each section's head: the distinct
	// tuples its Dedup (headStream) and the relation evalOnce collects
	// them into reached; each prepared group holds its totals' hints.
	heads map[*alt.Collection]*exec.SizeHint
}

// Prepare analyzes and lowers a validated collection with its link, over
// the schema of base (cat's own base relations when base is nil) and of
// inputs, the relations an execution binds through the override slot. It
// walks what EXPLAIN renders: col's scopes, or its recursive group's
// rules, then every view it reads. A scope the walk does not reach (one
// nested in a scope that enumerates environments) is analyzed by the
// execution that meets it, and so is an error: the walk stops at one, and
// the execution reports it where it evaluates what failed.
func Prepare(col *alt.Collection, link *alt.Link, cat *Catalog, conv convention.Conventions, base, inputs map[string]*relation.Relation) *Prepared {
	ev := newEvaluator(cat, conv, base, inputs)
	ev.read = map[string]bool{}
	p := &Prepared{col: col, link: link, cat: cat, conv: conv}
	// An error stops the walk; the execution that meets it reports it.
	_ = ev.prepare(p, recDef{col, link}, map[string]bool{})
	p.scopes, p.groups = ev.scopes, ev.groups
	p.reads = slices.Sorted(maps.Keys(ev.read))
	p.heads = make(map[*alt.Collection]*exec.SizeHint, len(p.sections))
	for _, d := range p.sections {
		p.heads[d.col] = new(exec.SizeHint)
	}
	for _, g := range p.groups {
		if g != nil {
			g.hints = make([]exec.SizeHint, len(g.defs))
		}
	}
	return p
}

// prepare analyzes and lowers the scopes of d that EXPLAIN renders — its
// own, or its recursive group's rules' — and then, depth first, those of
// every view it reads that done does not list yet.
func (ev *evaluator) prepare(p *Prepared, d recDef, done map[string]bool) error {
	p.sections = append(p.sections, d)
	defs := []recDef{d}
	if g := ev.groupOf(d.col, d.link, false); g != nil {
		if g.err != nil {
			return g.err
		}
		defs = g.defs
	} else {
		ev.pushLink(d.link)
		err := ev.explainScopes(d.col.Body, nil)
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
			err = ev.prepare(p, v, done)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// note records, at Prepare, that the analysis resolved name.
func (ev *evaluator) note(name string) {
	if ev.read != nil {
		ev.read[name] = true
	}
}

// scope is q's prepared scope, or nil.
func (p *Prepared) scope(q *alt.Quantifier) *scopeInfo {
	if p == nil {
		return nil
	}
	return p.scopes[q]
}

// group is col's prepared recursive group (nil when col is not
// recursive); ok is false when Prepare did not reach col.
func (p *Prepared) group(col *alt.Collection) (g *recGroup, ok bool) {
	if p == nil {
		return nil, false
	}
	g, ok = p.groups[col]
	return g, ok
}

// headHint is the size hint of col's head: nil when p is nil or Prepare
// did not reach col.
func (p *Prepared) headHint(col *alt.Collection) *exec.SizeHint {
	if p == nil {
		return nil
	}
	return p.heads[col]
}

// Relations lists the relations whose schema p was lowered against: every
// name its analysis resolved, as an input, a base relation, a view, or
// none of these. An execution over another schema for one of them needs
// another Prepare.
func (p *Prepared) Relations() []string { return p.reads }

// With prepares p's collection again, over base and the inputs of one
// execution, whose schemas differ from the ones p was lowered against.
func (p *Prepared) With(base, inputs map[string]*relation.Relation) *Prepared {
	return Prepare(p.col, p.link, p.cat, p.conv, base, inputs)
}

// execution is the evaluator of one execution of p over base (the
// catalog's own when nil), with inputs bound through the override slot
// (they shadow base relations of the same name for this execution only);
// check, when non-nil, is polled each fixpoint round and every few tuples
// a scope enumerates, so long recursions and joins honour context
// cancellation; tr, when non-nil, records the counters of the plans it
// runs and the rounds of every fixpoint (keyed "arc:"+names) for EXPLAIN
// ANALYZE (Explain).
func (p *Prepared) execution(base, inputs map[string]*relation.Relation, check func() error, tr *trace.Trace) *evaluator {
	ev := newEvaluator(p.cat, p.conv, base, inputs)
	ev.prep, ev.check, ev.tr = p, check, tr
	return ev
}

// Eval runs p once and returns its result relation (see execution for the
// arguments).
func (p *Prepared) Eval(base, inputs map[string]*relation.Relation, check func() error, tr *trace.Trace) (*relation.Relation, error) {
	return p.execution(base, inputs, check, tr).evalCollection(p.col, p.link, newEnv())
}

// Stream is Eval for a cursor. A recursive collection is computed to its
// fixpoint now, and its total streamed; an evaluation error then is
// returned at once. Any other collection is evaluated as the sequence is
// drained, on the stream evalOnce collects (headStream), so nothing is
// materialized: the function returned reports its first error once the
// sequence stops. The sequence reads base and inputs while it is drained,
// so they must not change until it stops, and it must be consumed by one
// goroutine, at most once.
func (p *Prepared) Stream(base, inputs map[string]*relation.Relation, check func() error, tr *trace.Trace) (exec.Seq, func() error, error) {
	ev := p.execution(base, inputs, check, tr)
	if g := ev.groupOf(p.col, p.link, false); g != nil {
		rel, err := ev.evalGroup(p.col, g, newEnv())
		if err != nil {
			return nil, nil, err
		}
		return exec.Scan(rel), func() error { return nil }, nil
	}
	var err error
	seq := func(yield func(relation.Tuple, int) bool) {
		ev.pushLink(p.link)
		defer ev.popLink()
		ev.headStream(p.col, newEnv(), &err)(yield)
	}
	return seq, func() error { return err }, nil
}

// Explain renders every scope p holds, as ExplainCollection describes;
// with tr, the trace of an execution of p, each lowered scope's operators
// carry that execution's counters: the execution ran these very plans.
func (p *Prepared) Explain(tr *trace.Trace) (string, error) {
	ev := p.execution(nil, nil, nil, tr)
	var b strings.Builder
	for i, d := range p.sections {
		if i > 0 {
			fmt.Fprintf(&b, "view %s:\n", d.col.Head.Rel)
		}
		var err error
		if g := ev.groupOf(d.col, d.link, false); g != nil {
			// Recursive definitions render their fixpoint rules (with the
			// per-round delta plans) instead of the flat scope walk.
			err = ev.explainRecursive(g, &b)
		} else {
			ev.pushLink(d.link)
			err = ev.explainScopes(d.col.Body, &b)
			ev.popLink()
		}
		if err != nil {
			return "", err
		}
	}
	return b.String(), nil
}
