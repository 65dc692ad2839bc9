package eval

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/workload"
)

// outerJoinQueries are LEFT and FULL join annotations over R(A,B), S(B,C)
// and T(A,C), each with the operator line its lowered scope must show,
// or the reason it stays on environment enumeration.
var outerJoinQueries = []struct{ src, shows string }{
	// ON equality from the preserved side into a joined pair.
	{"{Q(a, c) | ∃r ∈ R, s ∈ S, u ∈ T, left(r, inner(s, u)) " +
		"[Q.a = r.A ∧ Q.c = u.C ∧ r.B = s.B ∧ s.C = u.C]}", "HashJoin LEFT (r.B = s.B)"},
	// Two ON equalities across the node.
	{"{Q(a, b) | ∃r ∈ R, s ∈ S, u ∈ T, left(r, inner(s, u)) " +
		"[Q.a = r.A ∧ Q.b = s.B ∧ r.B = s.B ∧ r.A = u.A ∧ s.C = u.C]}", "HashJoin LEFT (r.B = s.B, r.A = u.A)"},
	// Arithmetic key on the left side.
	{"{Q(a, c) | ∃r ∈ R, s ∈ S, u ∈ T, left(r, inner(s, u)) " +
		"[Q.a = r.A ∧ Q.c = s.C ∧ r.B + 1 = s.B ∧ s.C = u.C]}", "HashJoin LEFT ((r.B + 1) = s.B)"},
	// An arithmetic key and a residual that reads both sides.
	{"{Q(a, c) | ∃r ∈ R, s ∈ S, left(r, s) [Q.a = r.A ∧ Q.c = s.C ∧ r.B + 1 = s.B ∧ r.A > s.C]}",
		"HashJoin LEFT ((r.B + 1) = s.B) residual(r.A > s.C)"},
	// A constant ON conjunct pins the right side's scan.
	{"{Q(a, c) | ∃r ∈ R, s ∈ S, left(r, s) [Q.a = r.A ∧ Q.c = s.C ∧ r.B = s.B ∧ s.C = 2]}",
		"Scan S as s probe(C=2)"},
	// FULL over a joined pair: its ON stays on the node, whole.
	{"{Q(a, c) | ∃r ∈ R, s ∈ S, u ∈ T, full(r, inner(s, u)) " +
		"[Q.a = r.A ∧ Q.c = u.C ∧ r.B = s.B ∧ s.C = u.C]}", "HashJoin FULL (r.B = s.B) residual(s.C = u.C)"},
	// FULL with an arithmetic key and a constant ON conjunct, which pins
	// nothing.
	{"{Q(a, b) | ∃r ∈ R, s ∈ S, full(r, s) [Q.a = r.A ∧ Q.b = s.C ∧ r.B + 1 = s.B ∧ s.C = 2]}",
		"HashJoin FULL ((r.B + 1) = s.B) residual(s.C = 2)"},
	// A nested collection on the nullable side ranges over each left
	// row's own relation: the scope enumerates.
	{"{Q(a, c) | ∃r ∈ R, k ∈ {K(c) | ∃s ∈ S [K.c = s.C ∧ s.B = r.B]}, left(r, k) [Q.a = r.A ∧ Q.c = k.c ∧ k.c > 1]}",
		"environment enumeration: lateral source K on a nullable side"},
	// A LEFT join inside an ∃: its left side follows the tested row, so
	// its ON may key on that row.
	{"{Q(a) | ∃r ∈ R [Q.a = r.A ∧ ∃s ∈ S, u ∈ T, left(s, u) [s.B = r.B ∧ s.C = u.C ∧ u.A = r.A]]}",
		"HashJoin LEFT (s.C = u.C, u.A = r.A) index(T)"},
	// A FULL node's ON that reads the row an ∃ tests reads outside the
	// node's operands: the scope enumerates.
	{"{Q(a) | ∃r ∈ R [Q.a = r.A ∧ ∃s ∈ S, u ∈ T, full(s, u) [s.C = u.C ∧ u.A = r.A]]}",
		"environment enumeration: ∃ subformula: FULL join condition u.A = r.A reads outside its operands"},
}

// TestOuterJoinLoweredDifferential holds the lowered LEFT and FULL joins
// to environment enumeration over randomized instances with NULL keys:
// same queries, same data, byte-identical results, under sets and bags.
func TestOuterJoinLoweredDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := workload.RandomBinary(rng, "R", "A", "B", 30, 6, 5)
		s := workload.RandomBinary(rng, "S", "B", "C", 30, 5, 4)
		u := workload.RandomBinary(rng, "T", "A", "C", 30, 6, 4)
		s.Insert(relation.Tuple{relation.Lift(nil), relation.Lift(2)})
		r.Insert(relation.Tuple{relation.Lift(1), relation.Lift(nil)})
		for qi, q := range outerJoinQueries {
			col := arc.MustParseCollection(q.src)
			for _, conv := range []convention.Conventions{convention.SetLogic(), convention.SQL()} {
				cat := func() *Catalog {
					return NewCatalog().AddRelation(r.Clone()).AddRelation(s.Clone()).AddRelation(u.Clone())
				}
				if seed == 0 {
					plan, err := ExplainCollection(col, cat(), conv, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(plan, q.shows) {
						t.Fatalf("query %d: plan lacks %q:\n%s", qi, q.shows, plan)
					}
					if enum := strings.Contains(plan, "environment enumeration"); enum != strings.HasPrefix(q.shows, "environment") {
						t.Fatalf("query %d: environment enumeration %v:\n%s", qi, enum, plan)
					}
				}
				want, err1 := EvalReference(col, cat(), conv)
				got, err2 := Eval(col, cat(), conv)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d query %d: error divergence: %v vs %v", seed, qi, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if want.String() != got.String() {
					t.Fatalf("seed %d query %d (%v): results diverge\nreference:\n%s\nlowered:\n%s",
						seed, qi, conv.Semantics, want, got)
				}
			}
		}
	}
}

// TestOuterJoinLowers pins that a LEFT join over a joined pair lowers: its
// scope is one plan with a keyed LEFT join, and nothing in it enumerates.
func TestOuterJoinLowers(t *testing.T) {
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	u := relation.New("T", "A", "C")
	for i := 0; i < 40; i++ {
		r.Add(i, i%7)
		s.Add(i%7, i%5)
		u.Add(i%9, i%5)
	}
	col := arc.MustParseCollection(outerJoinQueries[0].src)
	cat := NewCatalog().AddRelation(r).AddRelation(s).AddRelation(u)
	plan, err := ExplainCollection(col, cat, convention.SetLogic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `scope ∃r ∈ R, s ∈ S, u ∈ T:
  Project [a = r.A, c = u.C]
    HashJoin LEFT (r.B = s.B)
      Scan R as r
      HashJoin INNER (s.C = u.C) index(T)
        Scan S as s
        Scan T as u
`
	if plan != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", plan, want)
	}
}
