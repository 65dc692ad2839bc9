package eval

import (
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestTwoValuedLogicConvention(t *testing.T) {
	// Under 2VL, a comparison with NULL is plain false, so NOT over it
	// becomes true (no Unknown).
	cat := NewCatalog().
		AddRelation(relation.New("R", "A", "B").Add(1, nil).Add(2, 5))
	q := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("r", "R")},
			alt.AndF(
				alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A")),
				alt.NotF(alt.Gt(alt.Ref("r", "B"), alt.CInt(0))),
			)))
	three := mustEval(t, q, cat, convention.SetLogic())
	if three.Card() != 0 {
		t.Fatalf("3VL: NOT Unknown filters, got\n%s", three)
	}
	two := mustEval(t, q, cat, convention.Souffle())
	if !two.Contains(relation.Tuple{value.Int(1)}) {
		t.Fatalf("2VL: NOT false is true, got\n%s", two)
	}
}

func TestViewCachingAndCycles(t *testing.T) {
	cat := NewCatalog().AddRelation(relation.New("R", "A").Add(1).Add(2))
	v1 := alt.Col("V1", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("r", "R")},
			alt.Eq(alt.Ref("V1", "A"), alt.Ref("r", "A"))))
	v2 := alt.Col("V2", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("v", "V1")},
			alt.Eq(alt.Ref("V2", "A"), alt.Ref("v", "A"))))
	if err := cat.DefineView(v1); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineView(v2); err != nil {
		t.Fatal(err)
	}
	// A query joining both views: V1 evaluates once (cached) per Eval.
	q := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("a", "V1"), alt.Bind("b", "V2")},
			alt.AndF(
				alt.Eq(alt.Ref("Q", "A"), alt.Ref("a", "A")),
				alt.Eq(alt.Ref("a", "A"), alt.Ref("b", "A")),
			)))
	got := mustEval(t, q, cat, convention.SetLogic())
	if got.Card() != 2 {
		t.Fatalf("views:\n%s", got)
	}
	// Mutually recursive views run as one fixpoint; with no seed rule
	// the least fixed point is empty.
	catCyc := NewCatalog().AddRelation(relation.New("R", "A").Add(1))
	a := alt.Col("VA", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("x", "VB")},
			alt.Eq(alt.Ref("VA", "A"), alt.Ref("x", "A"))))
	bb := alt.Col("VB", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("x", "VA")},
			alt.Eq(alt.Ref("VB", "A"), alt.Ref("x", "A"))))
	if err := catCyc.DefineView(a); err != nil {
		t.Fatal(err)
	}
	if err := catCyc.DefineView(bb); err != nil {
		t.Fatal(err)
	}
	q2 := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("x", "VA")},
			alt.Eq(alt.Ref("Q", "A"), alt.Ref("x", "A"))))
	if got := mustEval(t, q2, catCyc, convention.SetLogic()); got.Card() != 0 {
		t.Fatalf("seedless view cycle:\n%s", got)
	}
}

func TestRecursiveView(t *testing.T) {
	// A recursive collection registered as a view.
	cat := NewCatalog().
		AddRelation(relation.New("P", "s", "t").Add(1, 2).Add(2, 3))
	anc := alt.Col("A", []string{"s", "t"},
		alt.OrF(
			alt.Exists([]*alt.Binding{alt.Bind("p", "P")},
				alt.AndF(
					alt.Eq(alt.Ref("A", "s"), alt.Ref("p", "s")),
					alt.Eq(alt.Ref("A", "t"), alt.Ref("p", "t")))),
			alt.Exists([]*alt.Binding{alt.Bind("p", "P"), alt.Bind("a2", "A")},
				alt.AndF(
					alt.Eq(alt.Ref("A", "s"), alt.Ref("p", "s")),
					alt.Eq(alt.Ref("p", "t"), alt.Ref("a2", "s")),
					alt.Eq(alt.Ref("A", "t"), alt.Ref("a2", "t")))),
		))
	if err := cat.DefineView(anc); err != nil {
		t.Fatal(err)
	}
	q := alt.Col("Q", []string{"t"},
		alt.Exists([]*alt.Binding{alt.Bind("a", "A")},
			alt.AndF(
				alt.Eq(alt.Ref("Q", "t"), alt.Ref("a", "t")),
				alt.Eq(alt.Ref("a", "s"), alt.CInt(1)),
			)))
	got := mustEval(t, q, cat, convention.SetLogic())
	wantRel(t, got, relation.New("W", "t").Add(2).Add(3), false)
}

func TestNestedOuterJoinTree(t *testing.T) {
	// left(left(r, s), t): two stacked outer joins.
	cat := NewCatalog().
		AddRelation(relation.New("R", "a").Add(1).Add(2).Add(3)).
		AddRelation(relation.New("S", "a", "x").Add(1, "s1")).
		AddRelation(relation.New("T", "a", "y").Add(2, "t2"))
	q := alt.Col("Q", []string{"a", "x", "y"},
		alt.ExistsJ(
			[]*alt.Binding{alt.Bind("r", "R"), alt.Bind("s", "S"), alt.Bind("t", "T")},
			alt.LeftJ(alt.LeftJ(alt.JV("r"), alt.JV("s")), alt.JV("t")),
			alt.AndF(
				alt.Eq(alt.Ref("Q", "a"), alt.Ref("r", "a")),
				alt.Eq(alt.Ref("Q", "x"), alt.Ref("s", "x")),
				alt.Eq(alt.Ref("Q", "y"), alt.Ref("t", "y")),
				alt.Eq(alt.Ref("r", "a"), alt.Ref("s", "a")),
				alt.Eq(alt.Ref("r", "a"), alt.Ref("t", "a")),
			)))
	got := mustEval(t, q, cat, convention.SetLogic())
	want := relation.New("W", "a", "x", "y").
		Add(1, "s1", nil).Add(2, nil, "t2").Add(3, nil, nil)
	wantRel(t, got, want, false)
}

func TestGroupOnOuterJoinedNulls(t *testing.T) {
	// Grouping keys that are NULL (from the null-extended side) group
	// together — the v3 COUNT-bug shape relies on r2.id never being NULL,
	// but grouping s-side attrs must not crash.
	cat := NewCatalog().
		AddRelation(relation.New("R", "id").Add(1).Add(2)).
		AddRelation(relation.New("S", "id", "d").Add(1, "a"))
	q := alt.Col("Q", []string{"sid", "ct"},
		alt.ExistsGJ(
			[]*alt.Binding{alt.Bind("r", "R"), alt.Bind("s", "S")},
			[]*alt.AttrRef{alt.Ref("s", "id")},
			alt.LeftJ(alt.JV("r"), alt.JV("s")),
			alt.AndF(
				alt.Eq(alt.Ref("Q", "sid"), alt.Ref("s", "id")),
				alt.Eq(alt.Ref("Q", "ct"), alt.Count(alt.Ref("s", "d"))),
				alt.Eq(alt.Ref("r", "id"), alt.Ref("s", "id")),
			)))
	got := mustEval(t, q, cat, convention.SetLogic())
	want := relation.New("W", "sid", "ct").Add(1, 1).Add(nil, 0)
	wantRel(t, got, want, false)
}

func TestMinMaxStrings(t *testing.T) {
	cat := NewCatalog().
		AddRelation(relation.New("R", "g", "s").Add(1, "pear").Add(1, "apple").Add(1, "fig"))
	q := alt.Col("Q", []string{"g", "mn", "mx"},
		alt.ExistsG([]*alt.Binding{alt.Bind("r", "R")},
			[]*alt.AttrRef{alt.Ref("r", "g")},
			alt.AndF(
				alt.Eq(alt.Ref("Q", "g"), alt.Ref("r", "g")),
				alt.Eq(alt.Ref("Q", "mn"), alt.Min(alt.Ref("r", "s"))),
				alt.Eq(alt.Ref("Q", "mx"), alt.Max(alt.Ref("r", "s"))),
			)))
	got := mustEval(t, q, cat, convention.SetLogic())
	wantRel(t, got, relation.New("W", "g", "mn", "mx").Add(1, "apple", "pear"), false)
}

func TestSumOverStringsErrors(t *testing.T) {
	cat := NewCatalog().
		AddRelation(relation.New("R", "s").Add("x"))
	q := alt.Col("Q", []string{"v"},
		alt.ExistsG([]*alt.Binding{alt.Bind("r", "R")}, nil,
			alt.Eq(alt.Ref("Q", "v"), alt.Sum(alt.Ref("r", "s")))))
	if _, err := Eval(q, cat, convention.SetLogic()); err == nil ||
		!strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("want non-numeric error, got %v", err)
	}
}

func TestBagWeightsFromSourceMultiplicity(t *testing.T) {
	r := relation.New("R", "A")
	r.InsertMult(relation.Tuple{value.Int(1)}, 3)
	cat := NewCatalog().AddRelation(r)
	q := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("r", "R")},
			alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A"))))
	bag := mustEval(t, q, cat, convention.SQL())
	if bag.Mult(relation.Tuple{value.Int(1)}) != 3 {
		t.Fatalf("source multiplicity lost:\n%s", bag)
	}
	set := mustEval(t, q, cat, convention.SetLogic())
	if set.Card() != 1 {
		t.Fatalf("set conventions must dedup:\n%s", set)
	}
	// Aggregates honour weights under bags: sum = 3×1.
	qa := alt.Col("Q", []string{"sm"},
		alt.ExistsG([]*alt.Binding{alt.Bind("r", "R")}, nil,
			alt.Eq(alt.Ref("Q", "sm"), alt.Sum(alt.Ref("r", "A")))))
	agg := mustEval(t, qa, cat, convention.SQL())
	if !agg.Contains(relation.Tuple{value.Int(3)}) {
		t.Fatalf("weighted sum:\n%s", agg)
	}
}

func TestSentenceWithHeadlessGroupFilter(t *testing.T) {
	// A sentence whose quantifier carries keyed grouping: true iff some
	// group passes the aggregate test.
	cat := NewCatalog().
		AddRelation(relation.New("S", "id", "d").Add(1, "a").Add(1, "b").Add(2, "c"))
	s := &alt.Sentence{Body: alt.ExistsG([]*alt.Binding{alt.Bind("s", "S")},
		[]*alt.AttrRef{alt.Ref("s", "id")},
		alt.Ge(alt.Count(alt.Ref("s", "d")), alt.CInt(2)))}
	ok, err := EvalSentence(s, cat, convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("group id=1 has count 2 ≥ 2; sentence should hold")
	}
	s2 := &alt.Sentence{Body: alt.ExistsG([]*alt.Binding{alt.Bind("s", "S")},
		[]*alt.AttrRef{alt.Ref("s", "id")},
		alt.Ge(alt.Count(alt.Ref("s", "d")), alt.CInt(3)))}
	ok2, err := EvalSentence(s2, cat, convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Fatal("no group reaches count 3")
	}
}

func TestHeadAssignmentOfNullConstant(t *testing.T) {
	// The left-join-as-union encoding assigns Q.B = null explicitly.
	cat := NewCatalog().
		AddRelation(relation.New("R", "A").Add(1)).
		AddRelation(relation.New("S", "B").Add(9))
	q := alt.Col("Q", []string{"A", "B"},
		alt.OrF(
			alt.Exists([]*alt.Binding{alt.Bind("r", "R"), alt.Bind("s", "S")},
				alt.AndF(
					alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A")),
					alt.Eq(alt.Ref("Q", "B"), alt.Ref("s", "B")),
					alt.Eq(alt.Ref("r", "A"), alt.Ref("s", "B")),
				)),
			alt.Exists([]*alt.Binding{alt.Bind("r", "R")},
				alt.AndF(
					alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A")),
					alt.Eq(alt.Ref("Q", "B"), alt.CNull()),
					alt.NotF(alt.Exists([]*alt.Binding{alt.Bind("s", "S")},
						alt.Eq(alt.Ref("r", "A"), alt.Ref("s", "B")))),
				)),
		))
	got := mustEval(t, q, cat, convention.SetLogic())
	wantRel(t, got, relation.New("W", "A", "B").Add(1, nil), false)
}

func TestCloneIndependence(t *testing.T) {
	orig := alt.Col("Q", []string{"A"},
		alt.ExistsG([]*alt.Binding{alt.Bind("r", "R")},
			[]*alt.AttrRef{alt.Ref("r", "A")},
			alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A"))))
	clone := alt.CloneCollection(orig)
	// Mutate the clone thoroughly.
	cq := clone.Body.(*alt.Quantifier)
	cq.Bindings[0].Var = "zzz"
	cq.Grouping.Keys[0].Attr = "mutated"
	clone.Head.Attrs[0] = "changed"
	oq := orig.Body.(*alt.Quantifier)
	if oq.Bindings[0].Var != "r" || oq.Grouping.Keys[0].Attr != "A" || orig.Head.Attrs[0] != "A" {
		t.Fatal("CloneCollection must be deep")
	}
}
