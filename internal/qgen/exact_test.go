package qgen

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/sql2arc"
	"repro/internal/sqleval"
	"repro/internal/value"
	"repro/internal/workload"
)

// beyond2p53 are the numerics where exact comparison and float coercion
// part ways: 2^53 and its int neighbours share one float, and 2^60 is
// one number as an int and as a float.
var beyond2p53 = func() []value.Value {
	var vs []value.Value
	for _, n := range []int64{1 << 53, 1<<53 - 1, 1<<53 + 1, 1 << 60} {
		vs = append(vs, value.Int(n), value.Float(float64(n)))
	}
	return vs
}()

// saltedBeyond2p53 is RandomInstance with tuples that put a value of
// beyond2p53 in either column of every relation, so joins, IN, EXISTS,
// grouping and dedup all meet them.
func saltedBeyond2p53(rng *rand.Rand, i int) Schema {
	inst := RandomInstance(rng, 12, i%3 == 0)
	for _, r := range inst.Relations() {
		for j := 0; j < 4; j++ {
			t := relation.Tuple{beyond2p53[rng.Intn(len(beyond2p53))], relation.Lift(rng.Intn(5))}
			if rng.Intn(2) == 0 {
				t[0], t[1] = t[1], t[0]
			}
			r.Insert(t)
		}
	}
	return inst
}

// TestDifferentialBeyond2p53 runs the planner-vs-reference and SQL-vs-ARC
// differentials over instances salted past 2^53, where = once meant one
// thing to a hash key and another to a comparison. Answers are compared
// as bags under =, not by rendering: a group or a dedup that meets the
// int and the float of one number may keep either as its representative.
func TestDifferentialBeyond2p53(t *testing.T) {
	rng := workload.Rand(2538)
	planned := 0
	for i := 0; i < 1500; i++ {
		src := Generate(rng)
		if i%3 == 0 {
			src = GenerateJoins(rng)
		}
		inst := saltedBeyond2p53(rng, i)
		db := sqleval.DB{}
		cat := eval.NewCatalog()
		for _, r := range inst.Relations() {
			db[r.Name()] = r
			cat.AddRelation(r)
		}
		q, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", i, src, err)
		}
		want, err := sqleval.Eval(q, db)
		if err != nil {
			t.Fatalf("trial %d: reference rejected %q: %v", i, src, err)
		}
		got, err := runPlan(q, db)
		switch {
		case errors.Is(err, plan.ErrNotPlannable):
		case err != nil:
			t.Fatalf("trial %d: planner path failed on %q: %v", i, src, err)
		case !slices.Equal(got.Attrs(), want.Attrs()) || !got.EqualBag(want):
			t.Fatalf("trial %d: planner divergence on %q\nreference:\n%s\nplanner:\n%s", i, src, want, got)
		default:
			planned++
		}
		if i%3 == 0 {
			continue // SQL-vs-ARC covers Generate's corpus, as TestDifferentialSQLvsARC does
		}
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			t.Fatalf("trial %d: sql2arc rejected %q: %v", i, src, err)
		}
		arcRel, err := eval.Eval(col, cat, convention.SQL())
		if err != nil {
			t.Fatalf("trial %d: ARC evaluator failed on %q: %v", i, src, err)
		}
		if !arcRel.EqualBag(want) {
			t.Fatalf("trial %d: SQL/ARC divergence on %q\nsql:\n%s\narc:\n%s", i, src, want, arcRel)
		}
	}
	if planned < 1000 {
		t.Fatalf("only %d/1500 salted queries were planner-verified", planned)
	}
}
