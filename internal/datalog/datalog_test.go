package datalog

import (
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestParseBasics(t *testing.T) {
	p := MustParse(`
		A(x,y) :- P(x,y).
		A(x,y) :- P(x,z), A(z,y).
	`)
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	if p.Rules[1].Head.Pred != "A" || len(p.Rules[1].Body) != 2 {
		t.Fatalf("rule 2 = %s", p.Rules[1])
	}
}

func TestParseAggregateRule(t *testing.T) {
	// Paper query (15).
	p := MustParse(`Q(ak,sm) :- R(ak,_), sm = sum b : {S(a,b), a < ak}.`)
	r := p.Rules[0]
	agg, ok := r.Body[1].(AggLiteral)
	if !ok {
		t.Fatalf("body[1] = %T", r.Body[1])
	}
	if agg.Func != "sum" || agg.Result != "sm" || len(agg.Body) != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if _, ok := r.Body[0].(PosAtom); !ok {
		t.Fatal("body[0] should be a positive atom")
	}
}

func TestParseNegationAndComments(t *testing.T) {
	p := MustParse(`
		% unreached pairs
		U(x,y) :- N(x), N(y), !E(x,y).
	`)
	if _, ok := p.Rules[0].Body[2].(NegAtom); !ok {
		t.Fatalf("negation parse broken: %T", p.Rules[0].Body[2])
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"A(x,y)",       // missing period
		"A(x :- P(x).", // bad head
		"A(x) :- P(x",  // unterminated
		"A(x) :- x ~ 1.",
		`A(x) :- P(x), y = sum z : {S(z).`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestAncestor(t *testing.T) {
	p := MustParse(`
		A(x,y) :- P(x,y).
		A(x,y) :- P(x,z), A(z,y).
	`)
	edb := EDB{"P": relation.New("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, 4)}
	got, err := EvalPredicate(p, edb, "A")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "s", "t").
		Add(1, 2).Add(2, 3).Add(3, 4).Add(1, 3).Add(2, 4).Add(1, 4)
	if !got.EqualSet(want) {
		t.Fatalf("ancestor:\n%s", got)
	}
}

func TestStratifiedNegation(t *testing.T) {
	p := MustParse(`
		R(x,y) :- E(x,y).
		R(x,y) :- E(x,z), R(z,y).
		Un(x,y) :- N(x), N(y), !R(x,y).
	`)
	edb := EDB{
		"E": relation.New("E", "s", "t").Add(1, 2),
		"N": relation.New("N", "v").Add(1).Add(2),
	}
	got, err := EvalPredicate(p, edb, "Un")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "a", "b").Add(1, 1).Add(2, 1).Add(2, 2)
	if !got.EqualSet(want) {
		t.Fatalf("unreachable:\n%s", got)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	p := MustParse(`
		A(x) :- N(x), !B(x).
		B(x) :- N(x), !A(x).
	`)
	edb := EDB{"N": relation.New("N", "v").Add(1)}
	if _, err := EvalProgram(p, edb); err == nil ||
		!strings.Contains(err.Error(), "stratifiable") {
		t.Fatalf("want stratification error, got %v", err)
	}
}

func TestSouffleSumEmptyIsZero(t *testing.T) {
	// Section 2.6 / query (15): Q(1,0) on R={(1,2)}, S=∅.
	p := MustParse(`Q(ak,sm) :- R(ak,_), sm = sum b : {S(a,b), a < ak}.`)
	edb := EDB{
		"R": relation.New("R", "ak", "b").Add(1, 2),
		"S": relation.New("S", "a", "b"),
	}
	got, err := EvalPredicate(p, edb, "Q")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "ak", "sm").Add(1, 0)
	if !got.EqualSet(want) {
		t.Fatalf("Soufflé sum over empty:\n%s", got)
	}
}

func TestAggregateGrouping(t *testing.T) {
	// FOI grouped aggregate (query (6)): Q(a, sum b : {R(a,b)}) :- R(a,_).
	p := MustParse(`Q(a,sm) :- R(a,_), sm = sum b : {R(a,b)}.`)
	edb := EDB{"R": relation.New("R", "a", "b").Add(1, 10).Add(1, 20).Add(2, 5)}
	got, err := EvalPredicate(p, edb, "Q")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "a", "sm").Add(1, 30).Add(2, 5)
	if !got.EqualSet(want) {
		t.Fatalf("grouped sum:\n%s", got)
	}
}

func TestAggregateNoExport(t *testing.T) {
	// Soufflé: "you cannot export information from within the body of an
	// aggregate" — b must not leak out.
	p := MustParse(`Q(a,b) :- R(a,_), c = count : {S(a2,b), a2 = a}.`)
	edb := EDB{
		"R": relation.New("R", "a", "x").Add(1, 0),
		"S": relation.New("S", "a", "b").Add(1, 7),
	}
	_, err := EvalPredicate(p, edb, "Q")
	if err == nil || !strings.Contains(err.Error(), "not grounded") {
		t.Fatalf("want grounding error for exported aggregate variable, got %v", err)
	}
}

func TestMinMaxMeanCount(t *testing.T) {
	p := MustParse(`
		Mn(m) :- m = min b : {R(_,b)}.
		Mx(m) :- m = max b : {R(_,b)}.
		Me(m) :- m = mean b : {R(_,b)}.
		Ct(c) :- c = count : {R(_,_)}.
	`)
	edb := EDB{"R": relation.New("R", "a", "b").Add(1, 10).Add(2, 20)}
	out, err := EvalProgram(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !out["Mn"].Contains(relation.Tuple{value.Int(10)}) ||
		!out["Mx"].Contains(relation.Tuple{value.Int(20)}) ||
		!out["Me"].Contains(relation.Tuple{value.Float(15)}) ||
		!out["Ct"].Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("aggregates: Mn=%s Mx=%s Me=%s Ct=%s", out["Mn"], out["Mx"], out["Me"], out["Ct"])
	}
	// min over an empty body derives nothing.
	empty := EDB{"R": relation.New("R", "a", "b")}
	out2, err := EvalProgram(p, empty)
	if err != nil {
		t.Fatal(err)
	}
	if out2["Mn"].Card() != 0 {
		t.Fatal("min over empty should derive nothing")
	}
	if !out2["Ct"].Contains(relation.Tuple{value.Int(0)}) {
		t.Fatal("count over empty is 0")
	}
}

func TestArithmeticAssignment(t *testing.T) {
	p := MustParse(`Q(x,y) :- R(x), y = x * 2 + 1.`)
	edb := EDB{"R": relation.New("R", "v").Add(3)}
	got, err := EvalPredicate(p, edb, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(relation.Tuple{value.Int(3), value.Int(7)}) {
		t.Fatalf("arithmetic:\n%s", got)
	}
}

func TestFacts(t *testing.T) {
	p := MustParse(`
		F(1,2).
		F(2,3).
		G(x) :- F(x,_).
	`)
	got, err := EvalPredicate(p, EDB{}, "G")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "x").Add(1).Add(2)
	if !got.EqualSet(want) {
		t.Fatalf("facts:\n%s", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	p := MustParse(`
		Even(x) :- Zero(x).
		Even(y) :- Succ(x,y), Odd(x).
		Odd(y) :- Succ(x,y), Even(x).
	`)
	succ := relation.New("Succ", "a", "b")
	for i := 0; i < 7; i++ {
		succ.Add(i, i+1)
	}
	edb := EDB{"Succ": succ, "Zero": relation.New("Zero", "n").Add(0)}
	out, err := EvalProgram(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "n").Add(0).Add(2).Add(4).Add(6); !out["Even"].EqualSet(want) {
		t.Fatalf("Even:\n%s", out["Even"])
	}
	if want := relation.New("W", "n").Add(1).Add(3).Add(5).Add(7); !out["Odd"].EqualSet(want) {
		t.Fatalf("Odd:\n%s", out["Odd"])
	}
}

func TestNonLinearRecursion(t *testing.T) {
	p := MustParse(`
		A(x,y) :- P(x,y).
		A(x,y) :- A(x,z), A(z,y).
	`)
	edb := EDB{"P": relation.New("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, 4).Add(4, 5)}
	got, err := EvalPredicate(p, edb, "A")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("W", "s", "t")
	for i := 1; i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			want.Add(i, j)
		}
	}
	if !got.EqualSet(want) {
		t.Fatalf("non-linear TC:\n%s", got)
	}
}

func TestAggregateBesideRecursion(t *testing.T) {
	// An aggregate over a lower stratum inside a recursive rule is
	// stratified; one over the rule's own stratum is not.
	p := MustParse(`Reach(x,c) :- Start(x), c = count : {P(x,_)}.
		Reach(y,c) :- Reach(x,_), P(x,y), c = count : {P(y,_)}.`)
	edb := EDB{
		"P":     relation.New("P", "s", "t").Add(1, 2).Add(1, 3).Add(2, 3),
		"Start": relation.New("Start", "n").Add(1),
	}
	got, err := EvalPredicate(p, edb, "Reach")
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "x", "c").Add(1, 2).Add(2, 1).Add(3, 0); !got.EqualSet(want) {
		t.Fatalf("out-degree of reachable nodes:\n%s", got)
	}
	bad := MustParse(`N(x) :- Start(x). N(c) :- Start(_), c = count : {N(_)}.`)
	if _, err := EvalPredicate(bad, edb, "N"); err == nil || !strings.Contains(err.Error(), "stratifiable") {
		t.Fatalf("aggregation through recursion: got %v", err)
	}
}

func TestNestedAggregate(t *testing.T) {
	// The largest per-group sum: an aggregate whose body aggregates.
	p := MustParse(`Top(m) :- m = max s : {R(a,_), s = sum b : {R(a,b)}}.`)
	edb := EDB{"R": relation.New("R", "a", "b").Add(1, 10).Add(1, 20).Add(2, 25)}
	got, err := EvalPredicate(p, edb, "Top")
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "m").Add(30); !got.EqualSet(want) {
		t.Fatalf("nested aggregate:\n%s", got)
	}
}

func TestProgramChecks(t *testing.T) {
	r := relation.New("R", "a", "b").Add(1, 2)
	for src, want := range map[string]string{
		`R(x,y) :- R(y,x).`:                 "both extensional and derived",
		`Q(x) :- R(x,_). Q(x,y) :- R(x,y).`: "arities",
		`Q(x) :- R(x).`:                     "used with 1 arguments",
		`V(x) :- R(x,_). Q(x) :- V(x,_).`:   "used with 2 arguments",
		`Q(x) :- R(x,_), !R(x,y).`:          "not grounded",
		`Q(x) :- R(x,_), y > 1.`:            "not grounded",
		`Q(x,y) :- R(x,_).`:                 "not grounded",
		`Q(_) :- R(_,_).`:                   "wildcard in head",
		`Q(c) :- c = count : {1 < 2}.`:      "no positive atom",
	} {
		if _, err := EvalPredicate(MustParse(src), EDB{"R": r}, "Q"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error mentioning %q", src, err, want)
		}
	}
	if _, err := EvalPredicate(MustParse(`Q(x) :- R(x,_).`), EDB{"R": r}, "Nope"); err == nil {
		t.Error("selecting an underived predicate should fail")
	}
}

func TestNamesDoNotCapture(t *testing.T) {
	// Predicates named like the translator's range variables and nested
	// heads: ARC resolves a name to a range variable before a relation.
	p := MustParse(`
		t1(x) :- x2(x,_).
		Xagg3(x,c) :- t1(x), c = count : {x2(x,_)}.
	`)
	edb := EDB{"x2": relation.New("x2", "a", "b").Add(1, 10).Add(1, 20).Add(2, 5)}
	got, err := EvalPredicate(p, edb, "Xagg3")
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.New("W", "x", "c").Add(1, 2).Add(2, 1); !got.EqualSet(want) {
		t.Fatalf("generated names captured a predicate:\n%s", got)
	}
}

// --- Datalog → ARC -------------------------------------------------------

// evalARC runs a translated collection under Soufflé conventions.
func evalARC(t *testing.T, col *alt.Collection, rels ...*relation.Relation) *relation.Relation {
	t.Helper()
	cat := eval.NewCatalog()
	for _, r := range rels {
		cat.AddRelation(r)
	}
	got, err := eval.Eval(col, cat, convention.Souffle())
	if err != nil {
		t.Fatalf("%v\n%s", err, alt.PrintTree(col))
	}
	return got
}

func TestToARCEmptyMinDerivesNothing(t *testing.T) {
	// γ∅ over zero rows yields one group whose min is NULL; Soufflé's min
	// over an empty body fails. The translation guards the head.
	p := MustParse(`
		Mn(m) :- m = min b : {R(_,b)}.
		Me(m) :- m = mean b : {R(_,b)}.
		Sm(m) :- m = sum b : {R(_,b)}.
	`)
	schemas := map[string][]string{"R": {"a", "b"}}
	empty := relation.New("R", "a", "b")
	full := relation.New("R", "a", "b").Add(1, 4).Add(2, 8)
	for pred, want := range map[string][2]*relation.Relation{
		"Mn": {relation.New("W", "m"), relation.New("W", "m").Add(4)},
		"Me": {relation.New("W", "m"), relation.New("W", "m").Add(6.0)},
		"Sm": {relation.New("W", "m").Add(0), relation.New("W", "m").Add(12)},
	} {
		col, err := ToARC(p, schemas, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := evalARC(t, col, empty); !got.EqualSet(want[0]) {
			t.Errorf("%s over empty R:\n%s", pred, got)
		}
		if got := evalARC(t, col, full); !got.EqualSet(want[1]) {
			t.Errorf("%s over R:\n%s", pred, got)
		}
	}
}

func TestToARCAssignmentAndFacts(t *testing.T) {
	p := MustParse(`
		Q(x,y) :- R(x), y = x * 2 + 1.
		Chain(z) :- R(x), z = y + 1, y = x * 10.
		F(1,2).
		F(2,3).
		One(y) :- y = 1, y < 2.
	`)
	schemas := map[string][]string{"R": {"v"}}
	r := relation.New("R", "v").Add(3)
	for pred, want := range map[string]*relation.Relation{
		"Q":     relation.New("W", "x", "y").Add(3, 7),
		"Chain": relation.New("W", "z").Add(31),
		"F":     relation.New("W", "a", "b").Add(1, 2).Add(2, 3),
		"One":   relation.New("W", "y").Add(1),
	} {
		col, err := ToARC(p, schemas, pred)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if got := evalARC(t, col, r); !got.EqualSet(want) {
			t.Errorf("%s:\n%s", pred, got)
		}
	}
}

func TestToARCAncestor(t *testing.T) {
	p := MustParse(`
		A(x,y) :- P(x,y).
		A(x,y) :- P(x,z), A(z,y).
	`)
	pRel := relation.New("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, 4).Add(10, 11)
	col, err := ToARC(p, map[string][]string{"P": {"s", "t"}, "A": {"s", "t"}}, "A")
	if err != nil {
		t.Fatal(err)
	}
	link, err := alt.ValidateCollection(col)
	if err != nil {
		t.Fatalf("translated ALT invalid: %v\n%s", err, alt.PrintTree(col))
	}
	if !link.RecursiveCols[col] {
		t.Fatal("translation must preserve recursion")
	}
	arcRes := evalARC(t, col, pRel)
	want := relation.New("W", "s", "t").
		Add(1, 2).Add(2, 3).Add(3, 4).Add(1, 3).Add(2, 4).Add(1, 4).Add(10, 11)
	if !arcRes.EqualSet(want) {
		t.Fatalf("translated ancestor:\n%s", arcRes)
	}
}

func TestToARCAggregate(t *testing.T) {
	// Query (15) under Soufflé conventions.
	p := MustParse(`Q(ak,sm) :- R(ak,_), sm = sum b : {S(a,b), a < ak}.`)
	rRel := relation.New("R", "ak", "b").Add(1, 2).Add(5, 9)
	sRel := relation.New("S", "a", "b").Add(2, 100).Add(3, 50)
	schemas := map[string][]string{"R": {"ak", "b"}, "S": {"a", "b"}, "Q": {"ak", "sm"}}
	col, err := ToARC(p, schemas, "Q")
	if err != nil {
		t.Fatal(err)
	}
	arcRes := evalARC(t, col, rRel, sRel)
	want := relation.New("W", "ak", "sm").Add(1, 0).Add(5, 150)
	if !arcRes.EqualSet(want) {
		t.Fatalf("translated aggregate:\n%s", arcRes)
	}
	// The empty-S instance shows the convention: Q(1,0) and Q(5,0).
	arc2 := evalARC(t, col, rRel, relation.New("S", "a", "b"))
	if !arc2.Contains(relation.Tuple{value.Int(1), value.Int(0)}) {
		t.Fatalf("Soufflé convention lost in ARC:\n%s", arc2)
	}
}

func TestToARCNegation(t *testing.T) {
	p := MustParse(`Only(x) :- N(x), !M(x).`)
	n := relation.New("N", "v").Add(1).Add(2).Add(3)
	m := relation.New("M", "v").Add(2)
	col, err := ToARC(p, map[string][]string{"N": {"v"}, "M": {"v"}, "Only": {"v"}}, "Only")
	if err != nil {
		t.Fatal(err)
	}
	arcRes := evalARC(t, col, n, m)
	want := relation.New("W", "v").Add(1).Add(3)
	if !arcRes.EqualSet(want) {
		t.Fatalf("negation translation:\n%s", arcRes)
	}
}

func TestToARCConstantsInHeadAndBody(t *testing.T) {
	p := MustParse(`Q(x, 99) :- R(x, 1).`)
	r := relation.New("R", "a", "b").Add(7, 1).Add(8, 2)
	col, err := ToARC(p, map[string][]string{"R": {"a", "b"}, "Q": {"x", "c"}}, "Q")
	if err != nil {
		t.Fatal(err)
	}
	got := evalARC(t, col, r)
	want := relation.New("W", "x", "c").Add(7, 99)
	if !got.EqualSet(want) {
		t.Fatalf("constants:\n%s", got)
	}
}

func TestProgramString(t *testing.T) {
	src := `Q(ak,sm) :- R(ak,_), sm = sum b : {S(a,b), a < ak}.`
	p := MustParse(src)
	printed := p.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if p2.String() != printed {
		t.Fatalf("printing unstable:\n%s\n%s", printed, p2.String())
	}
}
