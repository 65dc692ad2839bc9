package qgen

import (
	"errors"
	"maps"
	"math/rand"
	"regexp"
	"slices"
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
// every query must actually be planner-compiled, not silently falling
// back.
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
	for i := 0; i < 1000; i++ {
		trial(3000+i, GenerateJoins(rng))
	}
	t.Logf("planner compiled %d/%d queries (core grammar: %d/3000)", planned, total, corePlanned)
	// Every query of both grammars plans: a shape that starts falling
	// back to the reference shows here, not as a quietly smaller sample.
	if corePlanned != 3000 || planned != 4000 {
		t.Fatalf("planner compiled %d/4000 queries (core grammar: %d/3000), want all", planned, corePlanned)
	}
}

// TestPlannerDifferentialGroupColumns holds γ over column keys and
// column arguments, which reads its input rows in place, to the
// reference: NULL keys (S.C is NULL on the instances with NULLs), bag
// weights (the instances repeat rows), count(distinct …), implicit
// grouping and a join below γ, each on 40 random instances.
func TestPlannerDifferentialGroupColumns(t *testing.T) {
	rng := workload.Rand(20261018)
	queries := []string{
		"select S.C, count(*) n, count(S.B) c, sum(S.B) sm from S group by S.C",
		"select S.B, count(distinct S.C) d, count(S.C) c, min(S.C) mn, max(S.C) mx from S group by S.B",
		"select R.A, R.B, count(*) n from R group by R.A, R.B",
		"select T.C, T.A, sum(T.A) sm, count(distinct T.A) d from T group by T.A, T.C having count(*) >= 2",
		"select s.C, count(distinct r.A) d, sum(r.A) sm from R r, S s where r.B = s.B group by s.C",
		"select count(*) n, count(distinct S.C) d, sum(S.C) sm from S",
	}
	for i := 0; i < 40; i++ {
		inst := RandomInstance(rng, 12, i%2 == 0)
		db := sqleval.DB{}
		for _, r := range inst.Relations() {
			db[r.Name()] = r
		}
		for _, src := range queries {
			q := sql.MustParse(src)
			want, err := sqleval.Eval(q, db)
			if err != nil {
				t.Fatalf("instance %d: enumeration rejected %q: %v", i, src, err)
			}
			got, err := runPlan(q, db)
			if err != nil {
				t.Fatalf("instance %d: planner path failed on %q: %v", i, src, err)
			}
			if got.String() != want.String() {
				t.Fatalf("instance %d: planner divergence on %q\nenumeration:\n%s\nplanner:\n%s",
					i, src, want, got)
			}
		}
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
// with the environment enumeration path over the random corpora — the
// core grammar, and the explicit-join grammar whose translations carry
// LEFT and FULL join annotations. (The experiment goldens cover the
// paper's example corpus; here the two eval paths are compared directly.)
// Enough trials must lower every scope, or the suite compares enumeration
// with itself; the log counts the queries each reason keeps on
// enumeration.
func TestScopeCompilerDifferentialARC(t *testing.T) {
	reason := regexp.MustCompile(`environment enumeration: (.*)\)`)
	for _, corpus := range []struct {
		name  string
		gen   func(*rand.Rand) string
		floor int
	}{{"Generate", Generate, 276}, {"GenerateJoins", GenerateJoins, 389}} {
		rng := workload.Rand(424242)
		compiledSame, lowered := 0, 0
		reasons := map[string]int{}
		for i := 0; i < 400; i++ {
			src := corpus.gen(rng)
			inst := RandomInstance(rng, 10, i%4 == 0)
			cat := eval.NewCatalog()
			for _, r := range inst.Relations() {
				cat.AddRelation(r)
			}
			col, err := sql2arc.TranslateString(src)
			if err != nil {
				t.Fatalf("%s trial %d: sql2arc rejected %q: %v", corpus.name, i, src, err)
			}
			plan, err := eval.ExplainCollection(col, cat, convention.SQL(), nil)
			if err != nil {
				t.Fatalf("%s trial %d: explain %q: %v", corpus.name, i, src, err)
			}
			seen := map[string]bool{}
			for _, m := range reason.FindAllStringSubmatch(plan, -1) {
				if !seen[m[1]] {
					seen[m[1]] = true
					reasons[m[1]]++
				}
			}
			if len(seen) == 0 {
				lowered++
			}
			want, errEnum := eval.EvalReference(col, cat, convention.SQL())
			got, errPlan := eval.Eval(col, cat, convention.SQL())
			if (errEnum == nil) != (errPlan == nil) {
				t.Fatalf("%s trial %d: error divergence on %q: enum=%v plan=%v", corpus.name, i, src, errEnum, errPlan)
			}
			if errEnum != nil {
				continue
			}
			if got.String() != want.String() {
				t.Fatalf("%s trial %d: scope-compiler divergence on %q\nenumeration:\n%s\ncompiled:\n%s",
					corpus.name, i, src, want, got)
			}
			compiledSame++
		}
		if compiledSame < 300 {
			t.Fatalf("%s: too few ARC differential trials completed: %d", corpus.name, compiledSame)
		}
		if lowered < corpus.floor {
			t.Fatalf("%s: only %d/400 translated queries lowered every scope, want %d", corpus.name, lowered, corpus.floor)
		}
		t.Logf("%s: %d/400 translated queries lowered every scope", corpus.name, lowered)
		for _, r := range slices.Sorted(maps.Keys(reasons)) {
			t.Logf("%s: %3d environment enumeration: %s", corpus.name, reasons[r], r)
		}
	}
}
