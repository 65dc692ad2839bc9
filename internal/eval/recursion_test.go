package eval

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestRecursionSemiNaiveTC pins the semi-naive ARC fixpoint on linear
// transitive closure.
func TestRecursionSemiNaiveTC(t *testing.T) {
	col := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	p := workload.Chain(20)
	out, err := Eval(col, NewCatalog().AddRelation(p), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Distinct(), 19*20/2; got != want {
		t.Fatalf("TC over chain(20): %d tuples, want %d", got, want)
	}
}

// TestRecursionNonLinear exercises the naive-per-round fallback: the
// doubly recursive TC formulation (two references to A in one disjunct)
// must reach the same fixpoint as the linear one.
func TestRecursionNonLinear(t *testing.T) {
	linear := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	nonlinear := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃a1 ∈ A, a2 ∈ A [A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}")
	p := workload.Chain(16)
	lin, err := Eval(linear, NewCatalog().AddRelation(p), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	non, err := Eval(nonlinear, NewCatalog().AddRelation(p), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if lin.String() != non.String() {
		t.Fatalf("non-linear TC diverges from linear TC\nlinear:\n%s\nnon-linear:\n%s", lin, non)
	}
}

// viewCatalog registers the parsed collections as views over rels.
func viewCatalog(t *testing.T, rels []*relation.Relation, views ...string) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for _, r := range rels {
		cat.AddRelation(r)
	}
	for _, src := range views {
		if err := cat.DefineView(arc.MustParseCollection(src)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const (
	evenView = "{Even(n) | ∃z ∈ Zero [Even.n = z.n] ∨ ∃s ∈ Succ, o ∈ Odd [s.a = o.n ∧ Even.n = s.b]}"
	oddView  = "{Odd(n) | ∃s ∈ Succ, e ∈ Even [s.a = e.n ∧ Odd.n = s.b]}"
)

// TestRecursionMutualViews pins mutual recursion between definitions:
// even/odd over a successor chain runs as one two-relation fixpoint,
// whether both are views or one of them is the query itself (how a
// lowered Datalog program arrives: the target is the query, the rest are
// views that refer back to it by name).
func TestRecursionMutualViews(t *testing.T) {
	succ := relation.New("Succ", "a", "b")
	for i := 0; i < 6; i++ {
		succ.Add(i, i+1)
	}
	rels := []*relation.Relation{succ, relation.New("Zero", "n").Add(0)}
	wantEven := relation.New("W", "n").Add(0).Add(2).Add(4).Add(6)
	wantOdd := relation.New("W", "n").Add(1).Add(3).Add(5)

	both := viewCatalog(t, rels, evenView, oddView)
	for src, want := range map[string]*relation.Relation{
		"{Q(n) | ∃e ∈ Even [Q.n = e.n]}": wantEven,
		"{Q(n) | ∃o ∈ Odd [Q.n = o.n]}":  wantOdd,
		// Both members in one query: the group is computed once and cached.
		"{Q(n) | ∃e ∈ Even, o ∈ Odd [Q.n = e.n ∧ o.n = 1]}": wantEven,
	} {
		got, err := Eval(arc.MustParseCollection(src), both, convention.SetLogic())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !got.EqualSet(want) {
			t.Fatalf("%s:\n%s", src, got)
		}
	}

	got, err := Eval(arc.MustParseCollection(evenView), viewCatalog(t, rels, oddView), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualSet(wantEven) {
		t.Fatalf("Even as the query, Odd as a view:\n%s", got)
	}

	text, err := ExplainCollection(arc.MustParseCollection(evenView), viewCatalog(t, rels, oddView), convention.SetLogic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fixpoint Even, Odd (semi-naive, ΔEven, ΔOdd per round):",
		"rule 1 into Even [seed]:",
		"rule 2 into Even [delta (semi-naive)]:",
		"rule 3 into Odd [delta (semi-naive)]:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("group explain lacks %q:\n%s", want, text)
		}
	}
}

// TestRecursionNonLinearView runs the doubly recursive TC as a view (the
// naive-per-round rule) under a query that filters it.
func TestRecursionNonLinearView(t *testing.T) {
	cat := viewCatalog(t, []*relation.Relation{workload.Chain(6)},
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃a1 ∈ A, a2 ∈ A [A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}")
	got, err := Eval(arc.MustParseCollection("{Q(t) | ∃a ∈ A [Q.t = a.t ∧ a.s = 2]}"), cat, convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "t").Add(3).Add(4).Add(5); !got.EqualSet(want) {
		t.Fatalf("non-linear TC view:\n%s", got)
	}
}

// TestRecursionUnstratifiedRejected: recursion is only monotone outside
// negation and grouping. Between views nothing validates that up front,
// so the evaluator must refuse; within one collection the validator
// does, and still accepts grouping over other relations.
func TestRecursionUnstratifiedRejected(t *testing.T) {
	r := relation.New("R", "A").Add(1).Add(2)
	q := arc.MustParseCollection("{Q(A) | ∃x ∈ VA [Q.A = x.A]}")
	for name, views := range map[string][]string{
		"negation": {
			"{VA(A) | ∃r ∈ R [VA.A = r.A ∧ ¬(∃x ∈ VB [x.A = r.A])]}",
			"{VB(A) | ∃x ∈ VA [VB.A = x.A]}",
		},
		"grouping": {
			"{VA(A) | ∃x ∈ VB, γ ∅ [VA.A = count(x.A)]}",
			"{VB(A) | ∃x ∈ VA [VB.A = x.A]}",
		},
	} {
		_, err := Eval(q, viewCatalog(t, []*relation.Relation{r}, views...), convention.SetLogic())
		if err == nil || !strings.Contains(err.Error(), "not stratifiable") {
			t.Errorf("%s between views: got %v, want a stratification error", name, err)
		}
	}
	if _, err := alt.ValidateCollection(arc.MustParseCollection(
		"{N(x) | N.x = 0 ∨ ∃n ∈ N, γ ∅ [N.x = count(n.x)]}")); err == nil ||
		!strings.Contains(err.Error(), "inside a grouping scope") {
		t.Errorf("self-reference inside γ: got %v", err)
	}
	// Grouping over another relation inside a recursive collection is
	// stratified: reach(x, c) pairs every reachable x with |R|.
	col := arc.MustParseCollection(
		"{T(x, c) | ∃p ∈ P, k ∈ {K(c) | ∃r ∈ R, γ ∅ [K.c = count(r.A)]} [T.x = p.s ∧ T.c = k.c] ∨ " +
			"∃t ∈ T, p ∈ P, k ∈ {K(c) | ∃r ∈ R, γ ∅ [K.c = count(r.A)]} [t.x = p.s ∧ T.x = p.t ∧ T.c = k.c]}")
	got, err := Eval(col, NewCatalog().AddRelation(r).AddRelation(workload.Chain(3)), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "x", "c").Add(0, 2).Add(1, 2).Add(2, 2); !got.EqualSet(want) {
		t.Fatalf("aggregate beside recursion:\n%s", got)
	}
}

// TestRecursionIterationCap pins the termination guard: a recursive
// collection that keeps deriving fresh tuples (a number stream) must
// surface the engine's iteration-cap error rather than loop forever.
func TestRecursionIterationCap(t *testing.T) {
	col := arc.MustParseCollection(
		"{N(x) | N.x = 0 ∨ ∃n ∈ N [N.x = n.x + 1]}")
	_, err := Eval(col, NewCatalog(), convention.SetLogic())
	if !errors.Is(err, fixpoint.ErrIterationCap) {
		t.Fatalf("diverging recursion: got %v, want ErrIterationCap", err)
	}
}

// TestExplainRecursiveGolden pins the fixpoint plan rendering of a
// recursive collection: rule classification plus the per-round delta
// plan of the lowered scopes.
func TestExplainRecursiveGolden(t *testing.T) {
	col := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	cat := NewCatalog().AddRelation(workload.Chain(3))
	got, err := ExplainCollection(col, cat, convention.SetLogic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `Fixpoint A (semi-naive, ΔA per round):
  rule 1 [seed]:
    scope ∃p ∈ P:
      Project [s = p.s, t = p.t]
        Scan P as p
  rule 2 [delta (semi-naive)]:
    scope ∃p ∈ P, a2 ∈ A:
      Project [s = p.s, t = a2.t]
        HashJoin INNER (p.t = a2.s) index(P)
          CteScan ΔA as a2
          Scan P as p
`
	if got != want {
		t.Fatalf("recursive explain mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecursionOuterJoinNaive pins a recursive rule whose recursive
// occurrence lies on a LEFT join's nullable side: its rule re-derives from
// the totals every round, on a lowered LEFT join. Rotating the delta there
// would null-extend a P row that matches the total but not the round's
// delta: here node 1 would gain a spurious (1, NULL).
func TestRecursionOuterJoinNaive(t *testing.T) {
	col := arc.MustParseCollection("{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ " +
		"∃p ∈ P, a2 ∈ A, left(p, a2) [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	p := relation.New("P", "s", "t")
	p.Add(1, 2)
	p.Add(2, 1)
	p.Add(3, 1)
	cat := NewCatalog().AddRelation(p)
	plan, err := ExplainCollection(col, cat, convention.SetLogic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rule := plan[strings.Index(plan, "rule 2"):]; !strings.HasPrefix(rule, "rule 2 [naive per round]:") ||
		!strings.Contains(rule, "HashJoin LEFT (p.t = a2.s)") || strings.Contains(rule, "environment enumeration") {
		t.Fatalf("plan:\n%s", plan)
	}
	for _, conv := range []convention.Conventions{convention.SetLogic(), convention.SQL()} {
		want, err := EvalReference(col, cat, conv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eval(col, cat, conv)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%v: lowered\n%s\nreference\n%s", conv.Semantics, got, want)
		}
		if got.Distinct() != 6 || got.Contains(relation.Tuple{relation.Lift(1), relation.Lift(nil)}) {
			t.Fatalf("%v: want the 6 pairs over {1, 2, 3} × {1, 2}, no NULL, got\n%s", conv.Semantics, got)
		}
	}
}
