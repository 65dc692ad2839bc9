package qgen

import (
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The safety net of the FOI-as-FIO lowering (docs/INVARIANTS.md, "FOI as
// FIO"): a FOI aggregate over the relation it is correlated with runs as
// one γ under set semantics, and must return what environment
// enumeration of the FOI scope returns (eval.EvalReference, which never
// rewrites) — NULL keys, duplicate rows and a non-numeric value no
// lookup aggregates included — and raise exactly when it raises.

// foiConventions are the three set-semantics corners the rewrite runs
// under, and SQL's bags, under which it must not.
var foiConventions = []convention.Conventions{
	convention.Souffle(), convention.SetLogic(), convention.SQLDistinct(), convention.SQL(),
}

func TestFOIAsFIODifferential(t *testing.T) {
	rng := workload.Rand(4949)
	const trials = 600
	rewritten, kept, raised := 0, 0, 0
	for i := 0; i < trials; i++ {
		q := GenerateFOI(rng)
		col := arc.MustParseCollection(q.Src)
		cat := eval.NewCatalog()
		for _, r := range FOIInstance(rng, i%3) {
			cat.AddRelation(r)
		}
		for _, conv := range foiConventions {
			if agree(t, q.Src, col, cat, conv) {
				raised++
			}
			plan, err := eval.ExplainCollection(col, cat, conv, nil)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan, "environment enumeration") {
				t.Fatalf("%s under %s does not compile:\n%s", q.Src, conv, plan)
			}
			want := q.AsFIO && conv.Semantics == convention.Set
			if got := strings.Contains(plan, "(FOI as FIO: set semantics)"); got != want {
				t.Fatalf("%s under %s: rewritten = %v, want %v:\n%s", q.Src, conv, got, want, plan)
			}
			if want {
				rewritten++
			} else {
				kept++
			}
		}
	}
	if rewritten < trials || raised == 0 {
		t.Fatalf("%d of %d runs rewritten, %d raised: the corpus misses the rewrite or its errors", rewritten, trials*len(foiConventions), raised)
	}
	t.Logf("%d runs rewritten, %d kept their plan (bags, another relation, a head or condition outside the keys), %d raised", rewritten, kept, raised)
}

// TestFOIAsFIODirected pins the answers that tell the rewrite from the
// plain FIO γ and from the FOI under bags: a NULL-keyed group folds no
// row, so its sum is the empty group's, and a string in it fails
// nothing; under bags FOI keeps one row per outer tuple.
func TestFOIAsFIODirected(t *testing.T) {
	const foi = "{Q(A, sm) | ∃r ∈ G, x ∈ {X(sm) | ∃r2 ∈ G, γ ∅ [r2.A = r.A ∧ X.sm = sum(r2.B)]} [Q.A = r.A ∧ Q.sm = x.sm]}"
	g := relation.New("G", "A", "B").Add(1, 10).Add(1, 20).Add(2, 5).Add(nil, 7)
	bad := relation.New("G", "A", "B").Add(1, 10).Add(1, 20).Add(2, 5).Add(nil, "x")
	for _, tc := range []struct {
		g    *relation.Relation
		conv convention.Conventions
		want *relation.Relation
	}{
		{g, convention.Souffle(), relation.New("W", "A", "sm").Add(1, 30).Add(2, 5).Add(nil, 0)},
		{g, convention.SetLogic(), relation.New("W", "A", "sm").Add(1, 30).Add(2, 5).Add(nil, nil)},
		{bad, convention.Souffle(), relation.New("W", "A", "sm").Add(1, 30).Add(2, 5).Add(nil, 0)},
		{g, convention.SQL(), relation.New("W", "A", "sm").Add(1, 30).Add(1, 30).Add(2, 5).Add(nil, nil)},
	} {
		col := arc.MustParseCollection(foi)
		cat := eval.NewCatalog()
		cat.AddRelation(tc.g)
		agree(t, foi, col, cat, tc.conv)
		got, err := eval.Eval(col, cat, tc.conv)
		if err != nil || !got.EqualBag(tc.want.Rename("Q", got.Attrs())) {
			t.Errorf("G = %v under %s (%v):\n%s\nwant:\n%s", tc.g.Tuples(), tc.conv, err, got, tc.want)
		}
	}
}
