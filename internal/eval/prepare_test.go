package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/workload"
)

// prepare validates and prepares src over cat's base relations.
func prepare(t *testing.T, src string, cat *Catalog, conv convention.Conventions) *Prepared {
	t.Helper()
	col := arc.MustParseCollection(src)
	link, err := alt.ValidateCollection(col)
	if err != nil {
		t.Fatal(err)
	}
	return Prepare(col, link, cat, conv, nil, nil)
}

// TestPreparedRunsHeldPlans pins "lowered once": every execution of one
// Prepared runs the plans Prepare lowered — a traced execution's counters
// are on those very operators, and the execution analyzes and lowers
// nothing of its own — and its ANALYZE (Explain with the trace) renders
// them with those counters. Both a join and a transitive closure, whose
// delta rule's scope is bound to a new handle each execution.
func TestPreparedRunsHeldPlans(t *testing.T) {
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(3, 10)
	s := relation.New("S", "B", "C").Add(10, 0).Add(20, 1)
	cat := NewCatalog().AddRelation(r).AddRelation(s).AddRelation(workload.Chain(5))
	for _, src := range []string{
		"{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}",
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}",
	} {
		p := prepare(t, src, cat, convention.SetLogic())
		var held []*plan.Plan
		for _, si := range p.scopes {
			if si.scope == nil {
				t.Fatalf("%s: a scope enumerates environments: %s", src, si.reason)
			}
			held = append(held, si.scope.plan)
		}
		want, err := EvalReference(p.col, cat, convention.SetLogic())
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			tr := trace.New()
			ev := p.execution(nil, nil, nil, tr)
			got, err := ev.evalCollection(p.col, p.link, newEnv())
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualBag(want) {
				t.Fatalf("%s: run %d:\n%s\nwant\n%s", src, run, got, want)
			}
			if len(ev.scopes) > 0 || len(ev.groups) > 0 {
				t.Errorf("%s: run %d analyzed %d scopes and %d groups itself", src, run, len(ev.scopes), len(ev.groups))
			}
			for _, pl := range held {
				if text := pl.ExplainAt(0, tr); strings.Contains(text, "never executed") {
					t.Errorf("%s: run %d did not run the held plan:\n%s", src, run, text)
				}
			}
			text, err := p.Explain(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text, "rows=") || strings.Contains(text, "never executed") {
				t.Errorf("%s: ANALYZE of run %d lacks its counters:\n%s", src, run, text)
			}
		}
		plain, err := p.Explain(nil)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err := ExplainCollection(p.col, cat, convention.SetLogic(), nil); err != nil || fresh != plain {
			t.Errorf("%s: held plans render\n%s\na fresh lowering (%v)\n%s", src, plain, err, fresh)
		}
	}
}

// TestDistinctHeadSkipsDedup holds the set-semantics head stream of a
// scope whose plan proves its rows distinct (plan.DistinctRows: γ, a HAVING
// filter, a projection copying every grouping key) to the reference
// evaluator's bag, which deduplicates: duplicate base tuples, NULL keys,
// NaN (which is NULL) and aggregate predicates must not let a duplicate
// through. A projection that drops a key keeps its Dedup.
func TestDistinctHeadSkipsDedup(t *testing.T) {
	g := relation.New("G", "A", "B").
		Add(1, 10).Add(1, 10).Add(1, 20).Add(nil, 5).Add(math.NaN(), 7).Add(nil, 5).
		Add(2, 3).Add(2.0, 4).Add(3, nil).Add(math.NaN(), 7)
	cat := NewCatalog().AddRelation(g)
	for _, c := range []struct {
		src      string
		distinct bool
	}{
		{"{Q(A, sm) | ∃r ∈ G, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}", true},
		{"{Q(n, A) | ∃r ∈ G, γ r.A [Q.A = r.A ∧ Q.n = count(r.B) ∧ count(r.B) > 1]}", true},
		{"{Q(A, B) | ∃r ∈ G, γ r.A, r.B [Q.A = r.A ∧ Q.B = r.B]}", true},
		{"{Q(n) | ∃r ∈ G, γ ∅ [Q.n = count(r.B)]}", true},
		{"{Q(sm) | ∃r ∈ G, γ r.A [Q.sm = sum(r.B)]}", false},
		{"{Q(A) | ∃r ∈ G [Q.A = r.A]}", false},
	} {
		p := prepare(t, c.src, cat, convention.SetLogic())
		si := p.scopes[p.col.Body.(*alt.Quantifier)]
		if si == nil || si.scope == nil {
			t.Fatalf("%s: not lowered", c.src)
		}
		if si.scope.distinct != c.distinct {
			t.Errorf("%s: distinct = %v, want %v", c.src, si.scope.distinct, c.distinct)
		}
		got, err := p.Eval(nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalReference(p.col, cat, convention.SetLogic())
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(want) {
			t.Errorf("%s:\n%s\nreference:\n%s", c.src, got, want)
		}
	}
}
