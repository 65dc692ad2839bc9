package relation

import (
	"sync"
	"testing"

	"repro/internal/value"
)

// windowRows admits n two-column tuples, (i, i mod 7), into a total and
// returns the total and the window onto all of them, as a fixpoint round
// takes its delta.
func windowRows(n int) (total, w *Relation) {
	total = New("D", "a", "b")
	mark := total.Mark()
	for i := 0; i < n; i++ {
		total.Admit(tup(i, i%7))
	}
	return total, total.Since(mark)
}

// TestWindowIndexesLazily: a window that is only scanned never builds its
// tuple index; the first lookup builds it, later lookups and writes use
// that one, and every lookup answers as over a relation built by
// InsertMult.
func TestWindowIndexesLazily(t *testing.T) {
	const n = 100
	_, r := windowRows(n)
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
	if r.Admit(tup(7, 0)) || !r.Admit(tup(n, 0)) {
		t.Fatal("Admit took a tuple the window holds, or refused a new one")
	}
	if r.index != built {
		t.Fatal("the tuple index was built again")
	}
	if r.Mult(tup(7, 0)) != 3 || r.Mult(tup(n, 0)) != 1 || r.Distinct() != n+1 {
		t.Fatalf("after an insert and an admission: Mult(7, 0) = %d, Mult(%d, 0) = %d, %d distinct", r.Mult(tup(7, 0)), n, r.Mult(tup(n, 0)), r.Distinct())
	}
}

// TestLazyTupleIndexFirstBuildIsShared runs Mult, Contains and Probe on
// all columns concurrently against the first build of a window's tuple
// index: under -race it pins the double-checked read-lock-then-write-lock
// path, and every reader answers right.
func TestLazyTupleIndexFirstBuildIsShared(t *testing.T) {
	const n, readers = 500, 8
	for round := 0; round < 20; round++ {
		_, r := windowRows(n)
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

// TestWindowReadsWhileTotalAdmits: one goroutine scans and probes a window
// — its first probe builds the window's own index — while another admits
// new tuples into the total, which appends past the window's end of the
// value and count arrays they share and regrows them. Under -race this pins that the two
// never touch the same memory, and the window sees exactly its own rows.
func TestWindowReadsWhileTotalAdmits(t *testing.T) {
	const n, more = 256, 2048
	for round := 0; round < 10; round++ {
		total, w := windowRows(n)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := n; i < n+more; i++ {
				total.Admit(tup(i, i%7))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i += 8 {
				// Of 0 … n-1, the residue class of i mod 7 holds this many.
				want := (n - i%7 + 6) / 7
				if got := probeAll(w, []int{1}, []value.Value{value.Int(int64(i % 7))}); len(got) != want {
					t.Errorf("Probe(b = %d): %d tuples, want %d", i%7, len(got), want)
				}
				if !w.Contains(tup(i, i%7)) || w.Contains(tup(n+i, (n+i)%7)) {
					t.Errorf("Contains wrong around %d", i)
				}
				i := 0
				w.EachWhile(func(tp Tuple, m int) bool {
					if !tp.Equal(tup(i, i%7)) || m != 1 {
						t.Errorf("row %d: %v×%d, want (%d, %d)×1", i, tp, m, i, i%7)
					}
					i++
					return true
				})
				if i != n {
					t.Errorf("the window scans %d rows, want %d", i, n)
				}
			}
		}()
		wg.Wait()
		if total.Distinct() != n+more {
			t.Fatalf("the total holds %d tuples, want %d", total.Distinct(), n+more)
		}
	}
}

// TestWindowWritesNeverReachTotal pins copy-on-write: a write into a
// window — a multiplicity bump of a row it shares, a new tuple, a removal
// — copies the window's rows first, so the total's rows and counts stay
// as they were, and the window reads its own writes. A clone of a window
// freezes a copy, so a later bump in the total does not reach the clone.
func TestWindowWritesNeverReachTotal(t *testing.T) {
	total := New("T", "a", "b")
	for i := 0; i < 8; i++ {
		total.Admit(tup(i, i))
		if i == 3 {
			total.Insert(tup(3, 3))
		}
	}
	mark := 4
	want := rowsOf(total.EachWhile)
	w, md := total.Since(mark), want[mark:].clone()
	for _, step := range []struct {
		name  string
		write func()
	}{
		{"bump", func() { w.InsertMult(tup(5, 5), 2); md = md.insert(tup(5, 5), 2) }},
		{"insert", func() { w.Insert(tup(9, 9)); md = md.insert(tup(9, 9), 1) }},
		{"admit", func() { w.Admit(tup(10, 10)); md = md.insert(tup(10, 10), 1) }},
		{"remove", func() { w.RemoveKeys([]Tuple{tup(6, 6)}); md = md.remove([]Tuple{tup(6, 6)}) }},
	} {
		step.write()
		if err := sameOrder(rowsOf(total.EachWhile), want); err != nil {
			t.Fatalf("after a %s in the window, the total: %v", step.name, err)
		}
		if err := sameOrder(rowsOf(w.EachWhile), md); err != nil {
			t.Fatalf("after a %s, the window: %v", step.name, err)
		}
	}
	c := total.Since(mark).Clone()
	total.Insert(tup(4, 4))
	if c.Mult(tup(4, 4)) != 1 || total.Mult(tup(4, 4)) != 2 {
		t.Fatalf("after a bump in the total: the clone's count %d, the total's %d; want 1 and 2", c.Mult(tup(4, 4)), total.Mult(tup(4, 4)))
	}
}

// TestRecutWindow: a window re-cut onto the rows its total gained since a
// later mark is the window Since would cut there — its rows, and lookups
// and probes over them alone, whatever it indexed or was written into
// before — and leaves the total as it was.
func TestRecutWindow(t *testing.T) {
	total, w := windowRows(50)
	if !w.Contains(tup(3, 3)) || len(probeAll(w, []int{1}, []value.Value{value.Int(3)})) != 7 {
		t.Fatal("the first window does not answer over its rows")
	}
	w.InsertMult(tup(3, 3), 1) // a write: the window copies its rows
	for round, lo := range []int{50, 80} {
		mark := total.Mark()
		for i := lo; i < lo+30; i++ {
			total.Admit(tup(i, i%7))
		}
		total.Recut(w, mark)
		want := total.Since(mark)
		if w.Distinct() != 30 || !w.EqualBag(want) {
			t.Fatalf("round %d: re-cut window %v, want %v", round, w.Tuples(), want.Tuples())
		}
		if w.Contains(tup(3, 3)) || !w.Contains(tup(lo, lo%7)) || w.Mult(tup(lo+29, (lo+29)%7)) != 1 {
			t.Fatalf("round %d: lookups read rows outside the window", round)
		}
		if got := probeAll(w, []int{1}, []value.Value{value.Int(3)}); len(got) != len(probeAll(want, []int{1}, []value.Value{value.Int(3)})) {
			t.Fatalf("round %d: probe found %v", round, got)
		}
	}
	if total.Distinct() != 110 || total.Mult(tup(3, 3)) != 1 {
		t.Fatalf("the total changed: %d distinct, Mult(3, 3) = %d", total.Distinct(), total.Mult(tup(3, 3)))
	}
}
