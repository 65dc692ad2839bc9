package relation

import (
	"sync"
	"testing"

	"repro/internal/value"
)

// distinctRows builds a relation by AppendDistinct, as a fixpoint round
// builds its delta: n two-column tuples, (i, i mod 7).
func distinctRows(n int) *Relation {
	r := New("D", "a", "b")
	for i := 0; i < n; i++ {
		r.AppendDistinct(tup(i, i%7))
	}
	return r
}

// TestDistinctAppendIndexesLazily: a relation built by AppendDistinct and
// only scanned never builds its tuple index; the first lookup builds it,
// later lookups and inserts use that one, and every lookup answers as
// over a relation built by InsertMult.
func TestDistinctAppendIndexesLazily(t *testing.T) {
	const n = 100
	r := distinctRows(n)
	if r.Distinct() != n || r.Card() != n || len(r.Tuples()) != n {
		t.Fatalf("scans: %d distinct, %d occurrences, %d tuples; want %d each", r.Distinct(), r.Card(), len(r.Tuples()), n)
	}
	r.EachWhile(func(Tuple, int) bool { return true })
	if r.index != nil {
		t.Fatal("scans built the tuple index")
	}
	if m := r.Mult(tup(42, 0)); m != 1 {
		t.Fatalf("Mult(42, 0) = %d, want 1", m)
	}
	built := r.index
	if built == nil {
		t.Fatal("the first lookup did not build the tuple index")
	}
	if r.Contains(tup(42, 1)) || !r.Contains(tup(99, 1)) {
		t.Fatal("Contains answers wrongly after the build")
	}
	if got := probeAll(r, []int{0, 1}, []value.Value{value.Int(7), value.Int(0)}); len(got) != 1 {
		t.Fatalf("Probe on all columns: %d tuples, want 1", len(got))
	}
	r.InsertMult(tup(7, 0), 2)
	r.AppendDistinct(tup(n, 0))
	if r.index != built {
		t.Fatal("the tuple index was built again")
	}
	if r.Mult(tup(7, 0)) != 3 || r.Mult(tup(n, 0)) != 1 || r.Distinct() != n+1 {
		t.Fatalf("after an insert and an append: Mult(7, 0) = %d, Mult(%d, 0) = %d, %d distinct", r.Mult(tup(7, 0)), n, r.Mult(tup(n, 0)), r.Distinct())
	}
}

// TestLazyTupleIndexFirstBuildIsShared runs Mult, Contains and Probe on
// all columns concurrently against the first build of a distinct-appended
// relation's tuple index: under -race it pins the double-checked
// read-lock-then-write-lock path, and every reader answers right.
func TestLazyTupleIndexFirstBuildIsShared(t *testing.T) {
	const n, readers = 500, 8
	for round := 0; round < 20; round++ {
		r := distinctRows(n)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += readers {
					want := tup(i, i%7)
					switch i % 3 {
					case 0:
						if r.Mult(want) != 1 {
							t.Errorf("Mult(%v) != 1", want)
						}
					case 1:
						if !r.Contains(want) || r.Contains(tup(i, i%7+1)) {
							t.Errorf("Contains wrong around %v", want)
						}
					default:
						if got := probeAll(r, []int{0, 1}, want); len(got) != 1 {
							t.Errorf("Probe(%v): %d tuples, want 1", want, len(got))
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
