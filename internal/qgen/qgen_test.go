package qgen

import (
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/arc2sql"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/sql2arc"
	"repro/internal/sqleval"
	"repro/internal/value"
	"repro/internal/workload"
)

func renderBack(col *alt.Collection) (string, error) {
	return arc2sql.RenderString(col)
}

// TestDifferentialSQLvsARC is the pipeline property test: hundreds of
// random SQL queries must evaluate identically through (a) the
// independent SQL reference evaluator and (b) sql2arc translation + the
// ARC evaluator under SQL conventions. This mechanizes the Section 5
// coverage goal for the supported fragment.
func TestDifferentialSQLvsARC(t *testing.T) {
	const trials = 400
	rng := workload.Rand(20260612)
	bugs := 0
	for i := 0; i < trials; i++ {
		src := Generate(rng)
		inst := RandomInstance(rng, 12, i%3 == 0)
		db := sqleval.DB{}
		cat := eval.NewCatalog()
		for _, r := range inst.Relations() {
			db[r.Name()] = r
			cat.AddRelation(r)
		}
		want, err := sqleval.EvalString(src, db)
		if err != nil {
			t.Fatalf("trial %d: reference evaluator rejected generated query %q: %v", i, src, err)
		}
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			t.Fatalf("trial %d: sql2arc rejected generated query %q: %v", i, src, err)
		}
		got, err := eval.Eval(col, cat, convention.SQL())
		if err != nil {
			t.Fatalf("trial %d: ARC evaluator failed on %q: %v\nALT: %s", i, src, err, col)
		}
		if !got.EqualBag(want) {
			bugs++
			t.Errorf("trial %d: divergence on %q\nsql:\n%s\narc:\n%s", i, src, want, got)
			if bugs > 3 {
				t.Fatal("stopping after 4 divergences")
			}
		}
	}
}

// TestDifferentialRoundTrip adds the third leg: ARC → SQL rendering must
// also agree (set-level, since flattening is set-exact).
func TestDifferentialRoundTrip(t *testing.T) {
	const trials = 150
	rng := workload.Rand(777)
	for i := 0; i < trials; i++ {
		src := Generate(rng)
		inst := RandomInstance(rng, 10, false)
		db := sqleval.DB{}
		for _, r := range inst.Relations() {
			db[r.Name()] = r
		}
		want, err := sqleval.EvalString(src, db)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", i, src, err)
		}
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", i, src, err)
		}
		rendered, err := renderBack(col)
		if err != nil {
			// Renderer limitations (documented) are acceptable; skip.
			continue
		}
		got, err := sqleval.EvalString(rendered, db)
		if err != nil {
			t.Fatalf("trial %d: rendered %q from %q: %v", i, rendered, src, err)
		}
		if !got.EqualSet(want) {
			t.Errorf("trial %d: round-trip divergence\noriginal: %s\nrendered: %s\nwant:\n%s\ngot:\n%s",
				i, src, rendered, want, got)
		}
	}
}

// TestDirectedProbePushdownRegressions pins queries the random generator
// does not produce, in corners where index-probe pushdown once broke:
// constant ON conjuncts on FULL joins (unmatched rows must still
// null-extend) and alias shadowing between correlation scopes.
func TestDirectedProbePushdownRegressions(t *testing.T) {
	r := relationNew("R", "a", 1, 2)
	s := relationNew("S", "b", 2, 3)
	db := sqleval.DB{"R": r, "S": s}
	cat := eval.NewCatalog().AddRelation(r).AddRelation(s)

	// FULL JOIN with a constant ON conjunct: S's b=3 row matches nothing
	// and must surface null-extended on the left.
	q := "select R.a, S.b from R full join S on R.a = S.b and S.b = 2"
	want, err := sqleval.EvalString(q, db)
	if err != nil {
		t.Fatalf("sqleval: %v", err)
	}
	if want.Distinct() != 3 {
		t.Fatalf("sqleval full-join result lost a row:\n%s", want)
	}
	col, err := sql2arc.TranslateString(q)
	if err != nil {
		t.Fatalf("sql2arc: %v", err)
	}
	got, err := eval.Eval(col, cat, convention.SQL())
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("full-join divergence on %q\nsql:\n%s\narc:\n%s", q, want, got)
	}

	// Alias shadowing: the inner FROM rebinds S, so the EXISTS body is
	// uncorrelated and true for every outer row. Both engines must agree.
	r2 := relationNew("R", "x", 1)
	s2 := relationNew("S", "y", 1, 2)
	shadowDB := sqleval.DB{"R": r2, "S": s2}
	q2 := "select S.y from S where exists (select R.x from R, S where R.x = S.y)"
	got2, err := sqleval.EvalString(q2, shadowDB)
	if err != nil {
		t.Fatalf("sqleval: %v", err)
	}
	if got2.Distinct() != 2 {
		t.Fatalf("alias shadowing dropped rows on %q:\n%s", q2, got2)
	}
	col2, err := sql2arc.TranslateString(q2)
	if err != nil {
		t.Fatalf("sql2arc: %v", err)
	}
	cat2 := eval.NewCatalog().AddRelation(r2).AddRelation(s2)
	gotARC, err := eval.Eval(col2, cat2, convention.SQL())
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !gotARC.EqualBag(got2) {
		t.Fatalf("alias-shadowing divergence on %q\nsql:\n%s\narc:\n%s", q2, got2, gotARC)
	}

	// Large numerics: a float-valued column probed with an integer
	// literal must still match (an integral float shares its int's key).
	r3 := relation.New("R", "a")
	r3.Insert(relation.Tuple{value.Float(1e15)})
	bigDB := sqleval.DB{"R": r3}
	q3 := "select R.a from R where R.a = 1000000000000000"
	got3, err := sqleval.EvalString(q3, bigDB)
	if err != nil {
		t.Fatalf("sqleval: %v", err)
	}
	if got3.Distinct() != 1 {
		t.Fatalf("probe missed float 1e15 against int literal on %q:\n%s", q3, got3)
	}
}

func relationNew(name, attr string, vals ...int) *relation.Relation {
	r := relation.New(name, attr)
	for _, v := range vals {
		r.Add(v)
	}
	return r
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(workload.Rand(5))
	b := Generate(workload.Rand(5))
	if a != b {
		t.Fatalf("generator not deterministic:\n%s\n%s", a, b)
	}
	if !strings.HasPrefix(a, "select ") {
		t.Fatalf("unexpected query: %s", a)
	}
}
