package qgen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The safety net of the ARC scope compiler's decorrelation (γ∅ nested
// collections as grouped lookups, ∃/¬∃ as probes): generated Datalog
// rules, lowered to their ARC spellings by datalog.ToARC, must evaluate
// to the same bag compiled (eval.Eval) and by environment enumeration
// (eval.EvalReference), under every convention axis — and the compiled
// side must really be compiled, or the suite compares enumeration with
// itself.

// decorrelationConventions are the four corners that matter here: the
// value of an empty sum (Soufflé 0 / SQL NULL), bags, and both logics.
var decorrelationConventions = []convention.Conventions{
	convention.Souffle(),
	convention.SQL(),
	convention.SetLogic(),
	{Semantics: convention.Bag, NullLogic: convention.TwoValued, EmptyAggregate: convention.NullOnEmpty},
}

// saltedInstance is RandomInstance plus what a decorrelation can get
// wrong: NULL keys on both sides of every correlation, keys equal across
// int and float (1 and 1.0), and duplicate rows.
func saltedInstance(rng *rand.Rand, i int) []*relation.Relation {
	inst := RandomInstance(rng, 3+rng.Intn(10), i%3 == 0)
	for _, r := range inst.Relations() {
		for j := rng.Intn(3); j > 0; j-- {
			var key any
			switch rng.Intn(3) {
			case 0:
				key = float64(rng.Intn(5))
			case 1:
				key = rng.Intn(5)
			}
			t := relation.Tuple{relation.Lift(key), relation.Lift(rng.Intn(4))}
			if rng.Intn(2) == 0 {
				t[0], t[1] = t[1], t[0]
			}
			r.InsertMult(t, 1+rng.Intn(2))
		}
	}
	return inst.Relations()
}

// countBugInstance is the paper's count-bug instance (or a random one of
// its kind) under the generator's predicate names, with a T beside it.
func countBugInstance(rng *rand.Rand, i int) []*relation.Relation {
	r, s := workload.CountBugInstance()
	if i%2 == 0 {
		r, s = workload.CountBugRandom(rng, 2+rng.Intn(6), 3)
	}
	return []*relation.Relation{r, s, workload.RandomBinary(rng, "T", "A", "C", 2+rng.Intn(6), 6, 4)}
}

// lowerRule parses one rule and lowers Q to ARC over the relations'
// schemas.
func lowerRule(t *testing.T, src string, rels []*relation.Relation) (*alt.Collection, *eval.Catalog) {
	t.Helper()
	cat := eval.NewCatalog()
	schemas := map[string][]string{}
	for _, r := range rels {
		cat.AddRelation(r)
		schemas[r.Name()] = r.Attrs()
	}
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("generated rule %q does not parse: %v", src, err)
	}
	col, err := datalog.ToARC(p, schemas, "Q")
	if err != nil {
		t.Fatalf("generated rule %q does not lower: %v", src, err)
	}
	return col, cat
}

// agree holds Eval to EvalReference on col under conv and reports
// whether they raised (both must, or neither).
func agree(t *testing.T, what string, col *alt.Collection, cat *eval.Catalog, conv convention.Conventions) (raised bool) {
	t.Helper()
	want, errRef := eval.EvalReference(col, cat, conv)
	got, errGot := eval.Eval(col, cat, conv)
	if (errRef == nil) != (errGot == nil) {
		t.Fatalf("%s under %s: error divergence: enumeration=%v compiled=%v\n%s", what, conv, errRef, errGot, col)
	}
	if errRef == nil && !got.EqualBag(want) {
		t.Fatalf("%s under %s: decorrelation divergence\n%s\nenumeration:\n%s\ncompiled:\n%s", what, conv, col, want, got)
	}
	return errRef != nil
}

func TestDecorrelationDifferential(t *testing.T) {
	rng := workload.Rand(2121)
	const trials = 2000
	compiled := 0
	for i := 0; i < trials; i++ {
		src := GenerateDatalog(rng)
		rels := saltedInstance(rng, i)
		if i%5 == 0 {
			rels = countBugInstance(rng, i)
		}
		col, cat := lowerRule(t, src, rels)
		for _, conv := range decorrelationConventions {
			if agree(t, src, col, cat, conv) {
				t.Fatalf("trial %d: %q raised on a numeric instance", i, src)
			}
		}
		plan, err := eval.ExplainCollection(col, cat, convention.Souffle(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "environment enumeration") {
			compiled++
		}
	}
	if compiled*10 < trials*9 {
		t.Fatalf("only %d/%d generated rules compiled every scope: the differential would compare enumeration with itself", compiled, trials)
	}
	t.Logf("%d/%d generated rules compiled every scope", compiled, trials)
}

// TestDecorrelationDirected pins, one by one, what the rewrite must not
// get wrong (docs/INVARIANTS.md, "The decorrelation contract").
func TestDecorrelationDirected(t *testing.T) {
	null := relation.Lift(nil)
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(3, 30)
	r.Insert(relation.Tuple{null, relation.Lift(40)})
	s := relation.New("S", "B", "C").Add(10, 1).Add(10, 2).Add(10, 2).Add(20.0, 5)
	s.Insert(relation.Tuple{null, relation.Lift(7)})
	tt := relation.New("T", "A", "C").Add(1.0, 1).Add(2, 2)
	tt.Insert(relation.Tuple{null, relation.Lift(3)})
	rels := []*relation.Relation{r, s, tt}
	for _, tc := range []struct {
		src  string
		conv convention.Conventions
		want *relation.Relation
	}{
		// One row per outer tuple, whatever the inner cardinality: no
		// match (30, and the NULL-keyed outer row) reads the empty group.
		{"Q(b,v) :- R(_,b), v = count : {S(b,_)}.", convention.Souffle(),
			relation.New("W", "b", "v").Add(10, 2).Add(20, 1).Add(30, 0).Add(40, 0)},
		{"Q(b,v) :- R(_,b), v = count : {S(b,_)}.", convention.SQL(),
			relation.New("W", "b", "v").Add(10, 3).Add(20, 1).Add(30, 0).Add(40, 0)},
		// The empty group's value is the convention's, not the table's.
		{"Q(b,v) :- R(_,b), v = sum c : {S(b,c)}.", convention.Souffle(),
			relation.New("W", "b", "v").Add(10, 3).Add(20, 5).Add(30, 0).Add(40, 0)},
		{"Q(b,v) :- R(_,b), v = sum c : {S(b,c)}.", convention.SQL(),
			relation.New("W", "b", "v").Add(10, 5).Add(20, 5).Add(30, nil).Add(40, nil)},
		// A NULL key matches no group on either side: the NULL-keyed S
		// and T rows are read by nobody, R's NULL A reads the empty group.
		{"Q(a,v) :- R(a,_), v = count : {T(a,_)}.", convention.Souffle(),
			relation.New("W", "a", "v").Add(1, 1).Add(2, 1).Add(3, 0).Add(nil, 0)},
		// min over no tuples derives nothing (Soufflé), so the rule loses
		// the row — through the NOT NULL test, not through a missing group.
		{"Q(b,v) :- R(_,b), v = min c : {S(b,c)}.", convention.Souffle(),
			relation.New("W", "b", "v").Add(10, 1).Add(20, 5)},
		// The count bug's own shape: the count compared with a grounded
		// variable; (3,30)... no row has b = count, but a = count does.
		{"Q(a) :- R(a,_), a = count : {T(a,_)}.", convention.Souffle(),
			relation.New("W", "a").Add(1)},
		// ¬∃ with and without constants, NULL never matching.
		{"Q(b) :- R(_,b), !S(b,_).", convention.Souffle(), relation.New("W", "b").Add(30).Add(40)},
		{"Q(b) :- R(_,b), !S(b,2).", convention.Souffle(), relation.New("W", "b").Add(20).Add(30).Add(40)},
		{"Q(a) :- R(a,_), !T(a,_).", convention.Souffle(), relation.New("W", "a").Add(3).Add(nil)},
	} {
		col, cat := lowerRule(t, tc.src, rels)
		agree(t, tc.src, col, cat, tc.conv)
		got, err := eval.Eval(col, cat, tc.conv)
		if err != nil || !got.EqualBag(tc.want.Rename("Q", got.Attrs())) {
			t.Errorf("%s under %s (%v):\n%s\nwant:\n%s", tc.src, tc.conv, err, got, tc.want)
		}
		if plan, _ := eval.ExplainCollection(col, cat, tc.conv, nil); strings.Contains(plan, "environment enumeration") {
			t.Errorf("%s does not compile:\n%s", tc.src, plan)
		}
	}
}

// TestDecorrelationGroupErrors: a group whose evaluation raises ("sum
// over non-numeric value") raises only when an outer tuple reads it. The
// table is built for every group at once, so the compiled path has to
// keep the error with its group; enumeration never meets it.
func TestDecorrelationGroupErrors(t *testing.T) {
	s := relation.New("S", "B", "C").Add(10, 1).Add(99, "x")
	src := "Q(b,v) :- R(_,b), v = sum c : {S(b,c)}."
	for _, tc := range []struct {
		r      *relation.Relation
		raises bool
	}{
		{relation.New("R", "A", "B").Add(1, 10).Add(2, 20), false},
		{relation.New("R", "A", "B").Add(1, 10).Add(2, 99), true},
		{relation.New("R", "A", "B"), false},
	} {
		col, cat := lowerRule(t, src, []*relation.Relation{tc.r, s})
		for _, conv := range decorrelationConventions {
			if raised := agree(t, src, col, cat, conv); raised != tc.raises {
				t.Errorf("R = %v under %s: raised = %v, want %v", tc.r.Tuples(), conv, raised, tc.raises)
			}
		}
	}
}
