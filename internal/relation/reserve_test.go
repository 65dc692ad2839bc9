package relation

import (
	"slices"
	"testing"

	"repro/internal/value"
)

// TestReserveChangesCapacityOnly holds a relation Reserve presized, for
// fewer, as many and more tuples than it takes, to its unreserved twin:
// both admit the same tuples, a window cut from each (Mark, Since) holds
// the same rows and never the ones admitted after it into the spare
// capacity, probes find the same rows in the same order, and a clone of
// each and RemoveKeys on each leave the two equal, row for row.
func TestReserveChangesCapacityOnly(t *testing.T) {
	same := func(what string, a, b *Relation) {
		t.Helper()
		if at, bt := a.Tuples(), b.Tuples(); !slices.EqualFunc(at, bt, Tuple.Equal) || a.Card() != b.Card() {
			t.Fatalf("%s: reserved holds %v (%d occurrences), unreserved %v (%d)", what, at, a.Card(), bt, b.Card())
		}
	}
	for _, n := range []int{2, 7, 40, 100} {
		res, twin := New("T", "x", "y"), New("T", "x", "y")
		res.Reserve(n)
		admit := func(from, to int) {
			for i := from; i < to; i++ {
				tp := tup(i%30, i%7) // repeats from i = 210 on; none below
				if a, b := res.Admit(tp), twin.Admit(tp); a != b {
					t.Fatalf("n=%d: Admit(%v) = %v reserved, %v unreserved", n, tp, a, b)
				}
			}
		}
		admit(0, 20)
		m1, m2 := res.Mark(), twin.Mark()
		admit(20, 35)
		w1, w2 := res.Since(m1), twin.Since(m2)
		before := w1.Tuples()
		admit(35, 60) // into res's spare capacity while n allows
		same("window", w1, w2)
		if after := w1.Tuples(); !slices.EqualFunc(before, after, Tuple.Equal) || len(after) != 15 {
			t.Fatalf("n=%d: the window held %v, then %v after later admissions", n, before, after)
		}
		// A write into the window copies its rows: the total never sees it.
		w1.Insert(tup(-1, -1))
		if res.Contains(tup(-1, -1)) || res.Distinct() != twin.Distinct() {
			t.Fatalf("n=%d: a write into the window reached the total", n)
		}
		same("after admissions", res, twin)
		for _, v := range []int{0, 3, 6, 9} {
			vals := []value.Value{value.Int(int64(v))}
			if a, b := probeAll(res, []int{1}, vals), probeAll(twin, []int{1}, vals); !slices.EqualFunc(a, b, Tuple.Equal) {
				t.Fatalf("n=%d: Probe(y=%d) = %v reserved, %v unreserved", n, v, a, b)
			}
		}
		c1, c2 := res.Clone(), twin.Clone()
		c1.Insert(tup(100, 1))
		c2.Insert(tup(100, 1))
		same("clone", c1, c2)
		same("after cloning", res, twin)
		drop := []Tuple{tup(3, 3), tup(29, 1), tup(100, 1), tup(7, 0)}
		if a, b := c1.RemoveKeys(drop), c2.RemoveKeys(drop); a != b {
			t.Fatalf("n=%d: RemoveKeys removed %d reserved, %d unreserved", n, a, b)
		}
		same("clone after RemoveKeys", c1, c2)
		if a, b := res.RemoveKeys(drop), twin.RemoveKeys(drop); a != b {
			t.Fatalf("n=%d: RemoveKeys removed %d reserved, %d unreserved", n, a, b)
		}
		same("after RemoveKeys", res, twin)
		admit(60, 250)
		same("after growing past the reservation", res, twin)
	}
}

// TestReserveOnlyPresizesEmpty: Reserve leaves a relation that holds a
// row, a clone and a window as they are.
func TestReserveOnlyPresizesEmpty(t *testing.T) {
	r := New("T", "x").Add(1)
	r.Reserve(50)
	if cap(r.rows.mults) >= 50 {
		t.Fatal("Reserve presized a relation that holds a row")
	}
	c := r.Clone()
	c.RemoveKeys([]Tuple{tup(1)})
	c.Reserve(50)
	if c.index != nil || cap(c.rows.mults) >= 50 {
		t.Fatal("Reserve presized a clone")
	}
	w := New("T", "x")
	w.Reserve(50)
	if cap(w.rows.mults) != 50 || cap(w.rows.vals) != 50 || w.index == nil {
		t.Fatalf("an empty relation: capacity %d counts and %d values, index %v", cap(w.rows.mults), cap(w.rows.vals), w.index != nil)
	}
	m := w.Mark()
	w.Admit(tup(1))
	win := w.Since(m)
	win.Reserve(50)
	if cap(win.rows.mults) != 1 {
		t.Fatal("Reserve presized a window")
	}
}
