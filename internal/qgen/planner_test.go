package qgen

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/sql2arc"
	"repro/internal/sqleval"
	"repro/internal/workload"
)

// TestPlannerDifferentialSQL is the planner acceptance property: over
// thousands of random queries, the plan-compiled path must return
// byte-identical results (canonical rendering, so attribute names and
// multiplicities included) to the reference enumeration evaluator — and
// the core qgen grammar must actually be planner-compiled, not silently
// falling back.
func TestPlannerDifferentialSQL(t *testing.T) {
	rng := workload.Rand(20260730)
	planned, total := 0, 0
	trial := func(i int, src string) {
		t.Helper()
		inst := RandomInstance(rng, 12, i%3 == 0)
		db := sqleval.DB{}
		for _, r := range inst.Relations() {
			db[r.Name()] = r
		}
		q, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", i, src, err)
		}
		want, err := sqleval.Eval(q, db)
		if err != nil {
			t.Fatalf("trial %d: enumeration rejected %q: %v", i, src, err)
		}
		total++
		got, err := runPlan(q, db)
		if errors.Is(err, plan.ErrNotPlannable) {
			return // the engine runs these on the reference itself: no second side
		}
		if err != nil {
			t.Fatalf("trial %d: planner path failed on %q: %v", i, src, err)
		}
		planned++
		if got.String() != want.String() {
			t.Fatalf("trial %d: planner divergence on %q\nenumeration:\n%s\nplanner:\n%s",
				i, src, want, got)
		}
	}
	for i := 0; i < 3000; i++ {
		trial(i, Generate(rng))
	}
	corePlanned := planned
	if corePlanned < total*95/100 {
		t.Fatalf("planner compiled only %d/%d core-grammar queries", corePlanned, total)
	}
	for i := 0; i < 1000; i++ {
		trial(3000+i, GenerateJoins(rng))
	}
	t.Logf("planner compiled %d/%d queries (core grammar: %d/3000)", planned, total, corePlanned)
	if planned < 3000 {
		t.Fatalf("fewer than 3000 planner-compiled queries were differentially verified (%d)", planned)
	}
}

// TestPlannerDifferentialRange pins the RangeScan lowering: over the
// range-heavy corpus (BETWEEN, one- and two-sided bounds, flipped
// literal sides, NULL-laden instances) the planner path must return
// byte-identical results to the enumeration path, and the corpus must
// actually compile to RangeScan plans rather than silently staying on
// filtered full scans.
func TestPlannerDifferentialRange(t *testing.T) {
	rng := workload.Rand(20260808)
	ranged := 0
	for i := 0; i < 1500; i++ {
		src := GenerateRange(rng)
		inst := RandomInstance(rng, 12, i%2 == 0)
		db := sqleval.DB{}
		for _, r := range inst.Relations() {
			db[r.Name()] = r
		}
		q, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", i, src, err)
		}
		want, err := sqleval.Eval(q, db)
		if err != nil {
			t.Fatalf("trial %d: enumeration rejected %q: %v", i, src, err)
		}
		p, err := plan.CompileSchema(q, db)
		if errors.Is(err, plan.ErrNotPlannable) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: compile error does not wrap ErrNotPlannable: %q: %v", i, src, err)
		}
		if strings.Contains(p.Explain(), "RangeScan") {
			ranged++
		}
		got, err := p.ExecuteOn(db, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: planner path failed on %q: %v", i, src, err)
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: range divergence on %q\nenumeration:\n%s\nplanner:\n%s",
				i, src, want, got)
		}
	}
	if ranged < 1000 {
		t.Fatalf("only %d/1500 range-corpus queries compiled to a RangeScan", ranged)
	}
	t.Logf("range corpus: %d/1500 RangeScan plans", ranged)
}

// TestScopeCompilerDifferentialARC pins the ARC side of the same
// property: the quantifier scopes lowered onto internal/plan must agree
// with the environment enumeration path over the random corpus. (The
// experiment goldens cover the paper's example corpus; here the two eval
// paths are compared directly.) Enough trials must lower every scope, or
// the suite compares enumeration with itself.
func TestScopeCompilerDifferentialARC(t *testing.T) {
	rng := workload.Rand(424242)
	compiledSame, lowered := 0, 0
	for i := 0; i < 400; i++ {
		src := Generate(rng)
		inst := RandomInstance(rng, 10, i%4 == 0)
		cat := eval.NewCatalog()
		for _, r := range inst.Relations() {
			cat.AddRelation(r)
		}
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			t.Fatalf("trial %d: sql2arc rejected %q: %v", i, src, err)
		}
		plan, err := eval.ExplainCollection(col, cat, convention.SQL(), nil)
		if err != nil {
			t.Fatalf("trial %d: explain %q: %v", i, src, err)
		}
		if !strings.Contains(plan, "environment enumeration") {
			lowered++
		}
		want, errEnum := eval.EvalReference(col, cat, convention.SQL())
		got, errPlan := eval.Eval(col, cat, convention.SQL())
		if (errEnum == nil) != (errPlan == nil) {
			t.Fatalf("trial %d: error divergence on %q: enum=%v plan=%v", i, src, errEnum, errPlan)
		}
		if errEnum != nil {
			continue
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: scope-compiler divergence on %q\nenumeration:\n%s\ncompiled:\n%s",
				i, src, want, got)
		}
		compiledSame++
	}
	if compiledSame < 300 {
		t.Fatalf("too few ARC differential trials completed: %d", compiledSame)
	}
	if lowered < 276 {
		t.Fatalf("only %d/400 translated queries lowered every scope", lowered)
	}
	t.Logf("%d/400 translated queries lowered every scope", lowered)
}
