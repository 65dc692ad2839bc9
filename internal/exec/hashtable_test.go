package exec

import (
	"testing"

	"repro/internal/convention"

	"repro/internal/relation"
	"repro/internal/value"
)

func ht2(t *testing.T, rel *relation.Relation, cols ...int) *HashTable {
	t.Helper()
	return BuildHashTable(Scan(rel), cols, rel.Arity(), nil)
}

func TestEquiJoinStrictEquality(t *testing.T) {
	left := relation.New("L", "a").Add(1).Add(nil).Add(2)
	right := relation.New("R", "b").Add(1).Add(nil).Add(1)
	ht := ht2(t, right, 0)
	rows := Collect(EquiJoin(Scan(left), []int{0}, ht, false, nil, nil))
	// Only 1=1 matches (twice via the bag weight of... distinct rows: 1
	// appears twice → merged to mult 2 at build).
	total := 0
	for _, r := range rows {
		if r.Tup[0].IsNull() || r.Tup[1].IsNull() {
			t.Fatalf("NULL key joined: %v", r.Tup)
		}
		total += r.Mult
	}
	if total != 2 {
		t.Fatalf("want weight-2 match for key 1, got rows %v", rows)
	}
}

func TestEquiJoinResidual(t *testing.T) {
	left := relation.New("L", "a", "x").Add(1, 10).Add(1, 20)
	right := relation.New("R", "b", "y").Add(1, 10).Add(1, 99)
	ht := ht2(t, right, 0)
	rows := Collect(EquiJoin(Scan(left), []int{0}, ht, false, func(t relation.Tuple) bool {
		return value.Eq.Apply(t[1], t[3]) == value.True
	}, nil))
	if len(rows) != 1 || rows[0].Tup[1].AsInt() != 10 {
		t.Fatalf("residual filter failed: %v", rows)
	}
}

// TestEquiJoinBuildFirst: a join that builds its left input and streams
// its right emits the same left ++ right tuples, residual included, as
// the one that builds its right.
func TestEquiJoinBuildFirst(t *testing.T) {
	left := relation.New("L", "a", "x").Add(1, 10).Add(2, 20).Add(nil, 30)
	right := relation.New("R", "b", "y").Add(1, 10).Add(2, 9).Add(1, 11).Add(nil, 30)
	on := func(t relation.Tuple) bool { return value.Lt.Apply(t[1], t[3]) != value.True }
	want := Materialize(EquiJoin(Scan(left), []int{0}, ht2(t, right, 0), false, on, nil), "J", "a", "x", "b", "y")
	got := Materialize(EquiJoin(Scan(right), []int{0}, ht2(t, left, 0), true, on, nil), "J", "a", "x", "b", "y")
	if want.Card() != 2 || !got.EqualBag(want) {
		t.Fatalf("build-first join:\n%s\nwant:\n%s", got, want)
	}
}

func TestOuterHashJoinLeft(t *testing.T) {
	left := relation.New("L", "a").Add(1).Add(2).Add(3)
	right := relation.New("R", "b", "c").Add(2, 20).Add(3, 30)
	ht := ht2(t, right, 0)
	got := Materialize(OuterHashJoin(Scan(left), []int{0}, ht, nil, false, 1, nil), "J", "a", "b", "c")
	want := relation.New("J", "a", "b", "c").
		Add(1, nil, nil).Add(2, 2, 20).Add(3, 3, 30)
	if !got.EqualBag(want) {
		t.Fatalf("left join mismatch:\n%s\nwant:\n%s", got, want)
	}
}

func TestOuterHashJoinFull(t *testing.T) {
	left := relation.New("L", "a").Add(1).Add(2)
	right := relation.New("R", "b").Add(2).Add(3)
	ht := ht2(t, right, 0)
	got := Materialize(OuterHashJoin(Scan(left), []int{0}, ht, nil, true, 1, nil), "J", "a", "b")
	want := relation.New("J", "a", "b").Add(1, nil).Add(2, 2).Add(nil, 3)
	if !got.EqualBag(want) {
		t.Fatalf("full join mismatch:\n%s\nwant:\n%s", got, want)
	}
}

func TestOuterHashJoinFullResidualKeepsUnmatched(t *testing.T) {
	// A residual that rejects every pair must surface both sides
	// null-extended (the FULL-join guard of the evaluators).
	left := relation.New("L", "a").Add(1)
	right := relation.New("R", "b").Add(1)
	ht := ht2(t, right, 0)
	got := Materialize(OuterHashJoin(Scan(left), []int{0}, ht,
		func(relation.Tuple) bool { return false }, true, 1, nil), "J", "a", "b")
	want := relation.New("J", "a", "b").Add(1, nil).Add(nil, 1)
	if !got.EqualBag(want) {
		t.Fatalf("full join residual mismatch:\n%s\nwant:\n%s", got, want)
	}
}

func TestHashTableOverflowBeyond2p53(t *testing.T) {
	// 2^60 as int and as float are Eq-equal, so they share a Key bucket
	// and the probe finds the float.
	big := int64(1) << 60
	build := relation.New("B", "x").Add(value.Float(float64(big)))
	ht := ht2(t, build, 0)
	probe := []value.Value{value.Int(big)}
	found := false
	ht.Candidates(probe, func(_ int, r Row) bool {
		if ht.EqMatch(r, probe) {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("2^60 probe missed the Eq-equal float 2^60")
	}
}

func TestHashTableCrossJoinDegenerate(t *testing.T) {
	build := relation.New("B", "x").Add(1).Add(2)
	ht := ht2(t, build)
	n := 0
	ht.Candidates(nil, func(int, Row) bool { n++; return true })
	if n != 2 {
		t.Fatalf("zero-column candidates = %d, want 2", n)
	}
}

func TestCountColSkipsNulls(t *testing.T) {
	r := relation.New("R", "a", "b").Add(1, 1).Add(1, nil).Add(1, 2)
	rows := Collect(GroupAggregate(Scan(r), []int{0},
		[]Agg{{Func: Count}, {Func: CountCol, Col: 1}}, convention.SQL(), nil))
	if len(rows) != 1 {
		t.Fatalf("want one group, got %v", rows)
	}
	if rows[0].Tup[1].AsInt() != 3 || rows[0].Tup[2].AsInt() != 2 {
		t.Fatalf("count(*)=%v count(col)=%v, want 3 and 2", rows[0].Tup[1], rows[0].Tup[2])
	}
}
