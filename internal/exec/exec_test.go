package exec

import (
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
)

func tup(vals ...any) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Lift(v)
	}
	return t
}

func sampleR() *relation.Relation {
	r := relation.New("R", "a", "b")
	r.Add(1, 10).Add(2, 20).Add(2, 20).Add(3, 30).Add(3, 31)
	return r
}

func sampleS() *relation.Relation {
	s := relation.New("S", "b", "c")
	s.Add(10, "x").Add(20, "y").Add(20, "z").Add(40, "w")
	return s
}

func TestScanRoundTrips(t *testing.T) {
	r := sampleR()
	got := Materialize(Scan(r), r.Name(), r.Attrs()...)
	if !got.EqualBag(r) {
		t.Fatalf("scan→materialize lost rows:\n%s\nvs\n%s", got, r)
	}
}

func TestFilter(t *testing.T) {
	r := sampleR()
	got := Materialize(Filter(Scan(r), func(t relation.Tuple, _ int) bool {
		return t[0].AsInt() == 2
	}), "F", "a", "b")
	want := relation.New("F", "a", "b").Add(2, 20).Add(2, 20)
	if !got.EqualBag(want) {
		t.Fatalf("filter: got\n%s\nwant\n%s", got, want)
	}
}

func TestDedupMatchesMaterialized(t *testing.T) {
	r := sampleR()
	got := Materialize(Dedup(Scan(r), nil), "D", "a", "b")
	if !got.EqualBag(r.Dedup()) {
		t.Fatalf("dedup: got\n%s\nwant\n%s", got, r.Dedup())
	}
}

func TestProbe(t *testing.T) {
	r := sampleR()
	got := Collect(Probe(r, []int{0}, []value.Value{value.Int(3)}))
	if len(got) != 2 {
		t.Fatalf("probe a=3: got %d rows, want 2", len(got))
	}
	// Numeric key alignment: probing with 2.0 finds the int-2 rows.
	got = Collect(Probe(r, []int{0}, []value.Value{value.Float(2)}))
	if len(got) != 1 || got[0].Mult != 2 {
		t.Fatalf("probe a=2.0: got %v, want one row with multiplicity 2", got)
	}
}

// nestedLoopJoin is the reference the hash join must agree with (Key
// identity: equal to the join's strict Eq on NULL-free small integers).
func nestedLoopJoin(l, r *relation.Relation, lc, rc []int) []Row {
	var out []Row
	l.Each(func(lt relation.Tuple, lm int) {
		r.Each(func(rt relation.Tuple, rm int) {
			for i := range lc {
				if lt[lc[i]].Key() != rt[rc[i]].Key() {
					return
				}
			}
			joined := append(append(relation.Tuple{}, lt...), rt...)
			out = append(out, Row{Tup: joined, Mult: lm * rm})
		})
	})
	return out
}

func rowsToRel(rows []Row, name string, attrs ...string) *relation.Relation {
	out := relation.New(name, attrs...)
	for _, r := range rows {
		out.InsertMult(r.Tup, r.Mult)
	}
	return out
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	r, s := sampleR(), sampleS()
	attrs := []string{"a", "b", "b2", "c"}
	want := rowsToRel(nestedLoopJoin(r, s, []int{1}, []int{0}), "J", attrs...)
	ht := BuildHashTable(Scan(s), []int{0}, s.Arity(), nil)
	hj := Materialize(EquiJoin(Scan(r), []int{1}, ht, false, nil, nil), "J", attrs...)
	if !hj.EqualBag(want) {
		t.Fatalf("hash join: got\n%s\nwant\n%s", hj, want)
	}
}

func TestGroupAggregate(t *testing.T) {
	r := sampleR()
	got := Materialize(
		GroupAggregate(Scan(r), []int{0}, []Agg{{Func: Sum, Col: 1}, {Func: Count}}, convention.SQL(), nil),
		"G", "a", "sm", "ct")
	want := relation.New("G", "a", "sm", "ct").
		Add(1, 10, 1).Add(2, 40, 2).Add(3, 61, 2)
	if !got.EqualBag(want) {
		t.Fatalf("group aggregate (bag): got\n%s\nwant\n%s", got, want)
	}
	// Set semantics collapses the duplicate (2,20) row's weight.
	gotSet := Materialize(
		GroupAggregate(Scan(r.Dedup()), []int{0}, []Agg{{Func: Sum, Col: 1}, {Func: Count}}, convention.SetLogic(), nil),
		"G", "a", "sm", "ct")
	wantSet := relation.New("G", "a", "sm", "ct").
		Add(1, 10, 1).Add(2, 20, 1).Add(3, 61, 2)
	if !gotSet.EqualBag(wantSet) {
		t.Fatalf("group aggregate (set): got\n%s\nwant\n%s", gotSet, wantSet)
	}
}

func TestGroupAggregateEmptyInput(t *testing.T) {
	empty := relation.New("E", "a", "b")
	// Keyed grouping over zero rows: zero groups.
	keyed := Collect(GroupAggregate(Scan(empty), []int{0}, []Agg{{Func: Count}}, convention.SQL(), nil))
	if len(keyed) != 0 {
		t.Fatalf("keyed γ over empty input: got %d groups, want 0", len(keyed))
	}
	// γ∅: exactly one group, COUNT 0, SUM NULL (or 0 under Soufflé).
	rows := Collect(GroupAggregate(Scan(empty), nil, []Agg{{Func: Count}, {Func: Sum, Col: 1}}, convention.SQL(), nil))
	if len(rows) != 1 || rows[0].Tup[0].AsInt() != 0 || !rows[0].Tup[1].IsNull() {
		t.Fatalf("γ∅ over empty input under SQL: got %v", rows)
	}
	rows = Collect(GroupAggregate(Scan(empty), nil, []Agg{{Func: Sum, Col: 1}}, convention.Souffle(), nil))
	if len(rows) != 1 || rows[0].Tup[0].AsInt() != 0 {
		t.Fatalf("γ∅ over empty input under Soufflé: got %v", rows)
	}
}

func TestEarlyTermination(t *testing.T) {
	r := sampleR()
	n := 0
	for range Scan(r) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break consumed %d rows", n)
	}
}
