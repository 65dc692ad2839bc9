package relation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/value"
)

// TestHashCollisionsNeverMergeOrSplit forces unequal tuples onto one hash
// value in the tuple index: each stays its own tuple through insert,
// Mult, Probe on all columns and a Clone's base, while Equal ones — 2 and
// 2.0 — still merge.
func TestHashCollisionsNeverMergeOrSplit(t *testing.T) {
	const h = 7
	r := New("R", "A", "B")
	// The delta's tuple index is built now, so the forced hashes below go
	// into it rather than the real ones a lazy build would compute.
	indexed := func(r *Relation) {
		r.mu.Lock()
		r.tupleIndexLocked()
		r.mu.Unlock()
	}
	r.Insert(tup(0, "z"))
	indexed(r)
	two, twoF, three := tup(2, "x"), tup(2.0, "x"), tup(3, "y")
	r.insertHashed(two, h, 1, false)
	r.insertHashed(three, h, 1, false)
	r.insertHashed(twoF, h, 2, false)
	check := func(r *Relation, what string, distinct, mTwo, mThree int) {
		t.Helper()
		if r.Distinct() != distinct {
			t.Fatalf("%s: %d distinct tuples, want %d:\n%s", what, r.Distinct(), distinct, r)
		}
		for _, c := range []struct {
			t Tuple
			m int
		}{{two, mTwo}, {twoF, mTwo}, {three, mThree}, {tup(4, "w"), 0}} {
			if got := r.multHashed(c.t, h); got != c.m {
				t.Fatalf("%s: Mult(%v) under the shared hash = %d, want %d", what, c.t, got, c.m)
			}
			var want model
			if c.m > 0 {
				want = model{{c.t, c.m}}
			}
			if err := sameRows(rowsOf(func(f func(Tuple, int) bool) { r.probeHashed([]int{0, 1}, c.t, h, f) }), want); err != nil {
				t.Fatalf("%s: Probe(%v) under the shared hash: %v", what, c.t, err)
			}
		}
	}
	check(r, "delta", 3, 3, 1)
	c := r.Clone()
	c.Insert(tup(5, "v"))
	indexed(c)
	c.insertHashed(three, h, 1, false) // retires the base row, re-adds it to the delta
	check(c, "clone", 4, 3, 2)
	check(r, "source", 3, 3, 1)
}

// fuzzDomain is FuzzRelationOps' value domain: NULL, small ints, 2 and
// 2.0, strings, and the ints and floats around 2^53 where exact and
// float-coercing comparison part ways.
var fuzzDomain = []value.Value{
	value.Null(), value.Int(0), value.Int(1), value.Int(2), value.Float(2), value.Float(2.5),
	value.Str("a"), value.Str("b"),
	value.Int(1<<53 - 1), value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53), value.Float(1<<53 + 2),
	value.Int(-(1<<53 + 1)), value.Float(-(1 << 53)), value.Float(math.Inf(1)),
}

// model is a naive relation: distinct tuples by Equal, with their counts.
type model []modelRow

type modelRow struct {
	t Tuple
	m int
}

func (md model) find(t Tuple) int {
	for i := range md {
		if md[i].t.Equal(t) {
			return i
		}
	}
	return -1
}

func (md model) insert(t Tuple, n int) model {
	if i := md.find(t); i >= 0 {
		md[i].m += n
		return md
	}
	return append(md, modelRow{t.Clone(), n})
}

func (md model) remove(ts []Tuple) model {
	var out model
	for _, row := range md {
		if !slicesContainsEqual(ts, row.t) {
			out = append(out, row)
		}
	}
	return out
}

func slicesContainsEqual(ts []Tuple, t Tuple) bool {
	for _, u := range ts {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

func (md model) clone() model {
	return append(model(nil), md...)
}

// sameRows reports whether got holds exactly the rows of want, each Equal
// tuple once with the same count, in any order.
func sameRows(got, want model) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d: got %v, want %v", len(got), len(want), got, want)
	}
	for _, w := range want {
		i := got.find(w.t)
		if i < 0 || got[i].m != w.m {
			return fmt.Errorf("row %v×%d: got %v", w.t, w.m, got)
		}
	}
	return nil
}

// sameOrder is sameRows, in want's order.
func sameOrder(got, want model) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d: got %v, want %v", len(got), len(want), got, want)
	}
	for i, w := range want {
		if !got[i].t.Equal(w.t) || got[i].m != w.m {
			return fmt.Errorf("row %d: got %v×%d, want %v×%d", i, got[i].t, got[i].m, w.t, w.m)
		}
	}
	return nil
}

// rowsOf collects what a reader yields.
func rowsOf(read func(func(Tuple, int) bool)) model {
	var md model
	read(func(t Tuple, m int) bool {
		md = append(md, modelRow{t, m})
		return true
	})
	return md
}

// FuzzRelationOps decodes bytes into a sequence of insert, InsertOwned,
// Admit, RemoveKeys, Clone, Probe, RangeProbe, Numbering, Mult and
// Mark/Since calls over a small value domain, and after every step
// compares the relation — and every earlier version a Clone left behind —
// against a naive model: a slice of distinct tuples compared with Equal.
// A window Since cuts must hold the model's rows past the mark, in order,
// and a Numbering must give two rows one number iff they are Equal on
// its columns.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 4, 3, 1, 2, 2, 5, 3, 4, 0, 9, 11, 6, 2, 3})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 3, 0, 0, 4, 1, 3, 0, 5, 1, 3, 0, 6, 2, 1, 3, 0, 2, 5, 1, 4, 3, 4, 2})
	f.Add([]byte{0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 8, 4, 0, 11, 0, 5, 0, 8, 10, 1, 2, 12, 13, 3, 2, 1, 9, 10, 3, 6, 11, 8})
	// Admissions (op 8), then lookups, a duplicate insert and a Clone of
	// a delta, then admissions and lookups on both sides of it.
	f.Add([]byte{8, 1, 2, 8, 2, 1, 8, 3, 4, 8, 4, 3, 7, 3, 4, 4, 2, 1, 2, 0, 2, 1, 1, 6, 1, 2, 3, 1, 8, 5, 6, 8, 2, 1, 8, 1, 1, 4, 0, 5, 7, 5, 6, 2, 1, 3, 4, 6, 2, 1})
	// A mark (op 9), admissions, a duplicate insert and a window; a
	// removal, which drops the mark; a new mark, admissions, a window and
	// a Clone, after which no window is cut.
	f.Add([]byte{9, 8, 1, 2, 8, 2, 1, 0, 1, 2, 1, 8, 1, 2, 9, 8, 3, 4, 9, 2, 0, 1, 2, 9, 9, 8, 5, 6, 8, 6, 5, 9, 3, 1, 8, 7, 7, 9})
	// Numberings (op 7) of a relation never cloned, then inserts that
	// extend them, a Clone, removals of base rows, a base tuple inserted
	// again and a key whose base rows died, numbered on both key columns.
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 3, 3, 7, 0, 7, 2, 0, 4, 1, 1, 7, 1, 3, 0, 2, 1, 1, 4, 1, 7, 0, 7, 3, 0, 5, 3, 7, 2, 0, 1, 2, 7, 1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		val := func() value.Value { return fuzzDomain[next()%len(fuzzDomain)] }
		tuple := func() Tuple { return Tuple{val(), val()} }
		colSets := [][]int{{0}, {1}, {0, 1}, {1, 0}}

		r, md := New("R", "A", "B"), model(nil)
		type version struct {
			r  *Relation
			md model
		}
		var old []version
		mark := -1 // the last Mark taken, while a window cut at it is defined
		for step := 0; len(data) > 0 && step < 256; step++ {
			op := next() % 10
			switch op {
			case 0:
				tp, n := tuple(), 1+next()%3
				r.InsertMult(tp, n)
				md = md.insert(tp, n)
			case 1:
				tp, n := tuple(), 1+next()%3
				r.InsertOwned(tp.Clone(), n)
				md = md.insert(tp, n)
			case 2:
				ts := make([]Tuple, 1+next()%3)
				for i := range ts {
					ts[i] = tuple()
				}
				want := 0
				for _, row := range md {
					if slicesContainsEqual(ts, row.t) {
						want += row.m
					}
				}
				if got := r.RemoveKeys(ts); got != want {
					t.Fatalf("step %d: RemoveKeys(%v) removed %d, want %d", step, ts, got, want)
				}
				md, mark = md.remove(ts), -1
			case 3:
				// Either side of a Clone may go on; the other must keep
				// its content whatever happens next.
				c := r.Clone()
				old, mark = append(old, version{r, md.clone()}), -1
				if next()%2 == 0 {
					old[len(old)-1].r = c
				} else {
					r = c
				}
			case 4:
				cols := colSets[next()%len(colSets)]
				vals := make([]value.Value, len(cols))
				for i := range vals {
					vals[i] = val()
				}
				var want model
				for _, row := range md {
					if row.t.EqualAt(cols, vals) {
						want = append(want, row)
					}
				}
				if err := sameRows(rowsOf(func(f func(Tuple, int) bool) { r.Probe(cols, vals, f) }), want); err != nil {
					t.Fatalf("step %d: Probe(%v, %v): %v", step, cols, vals, err)
				}
			case 5:
				col, lo, hi, incl := next()%2, val(), val(), next()
				if lo.IsNull() && hi.IsNull() {
					continue
				}
				loIncl, hiIncl := incl&1 != 0, incl&2 != 0
				within := func(x value.Value) bool {
					if x.IsNull() {
						return false
					}
					if !lo.IsNull() {
						if c, ok := x.Compare(lo); !ok || c < 0 || c == 0 && !loIncl {
							return false
						}
					}
					if !hi.IsNull() {
						if c, ok := x.Compare(hi); !ok || c > 0 || c == 0 && !hiIncl {
							return false
						}
					}
					return true
				}
				var want model
				for _, row := range md {
					if within(row.t[col]) {
						want = append(want, row)
					}
				}
				if err := sameRows(rowsOf(func(f func(Tuple, int) bool) { r.RangeProbe(col, lo, hi, loIncl, hiIncl, f) }), want); err != nil {
					t.Fatalf("step %d: RangeProbe(%d, %v, %v, %v, %v): %v", step, col, lo, hi, loIncl, hiIncl, err)
				}
			case 7:
				// Numbering: its runs' live slots are a scan of the model's
				// rows in the relation's iteration order, in which two rows
				// share a number iff they are Equal on the columns; Skip
				// counts live slots as a walk of Dead does.
				cols := colSets[next()%len(colSets)]
				nb := r.Numbering(cols)
				var nums []int
				var got model
				skip := next() % 4
				for _, run := range nb.Runs() {
					ns, ms := make([]int32, run.Len()), make([]int, run.Len())
					run.Nums(0, ns)
					run.Mults(0, ms)
					for s := 0; s < run.Len(); s++ {
						hi, live := s, 0
						for ; hi < run.Len() && live < skip; hi++ {
							if !run.Dead(hi) {
								live++
							}
						}
						if h, l := run.Skip(s, skip); h != hi || l != live {
							t.Fatalf("step %d: Skip(%d, %d) = %d, %d, want %d, %d", step, s, skip, h, l, hi, live)
						}
						part := make([]int32, min(skip, run.Len()-s))
						if run.Nums(s, part); !slices.Equal(part, ns[s:s+len(part)]) {
							t.Fatalf("step %d: Nums from %d read %v, from 0 %v", step, s, part, ns[s:s+len(part)])
						}
						if run.Dead(s) != (ns[s] < 0) {
							t.Fatalf("step %d: slot %d dead %v, numbered %d", step, s, run.Dead(s), ns[s])
						}
						if !run.Dead(s) {
							got = append(got, modelRow{run.Tuple(s), ms[s]})
							nums = append(nums, int(ns[s]))
						}
					}
				}
				if err := sameOrder(got, rowsOf(r.EachWhile)); err != nil {
					t.Fatalf("step %d: Numbering(%v) runs against the relation: %v", step, cols, err)
				}
				if err := sameRows(got, md); err != nil {
					t.Fatalf("step %d: Numbering(%v): %v", step, cols, err)
				}
				for i := range got {
					if nums[i] < 0 || nums[i] >= nb.Groups() {
						t.Fatalf("step %d: Numbering(%v) numbers %v %d of %d", step, cols, got[i].t, nums[i], nb.Groups())
					}
					for j := range i {
						if same := sameAt(got[i].t, got[j].t, cols); same != (nums[i] == nums[j]) {
							t.Fatalf("step %d: Numbering(%v) numbers %v %d and %v %d", step, cols, got[i].t, nums[i], got[j].t, nums[j])
						}
					}
				}
			case 8:
				tp := tuple()
				isNew := md.find(tp) < 0
				if got := r.Admit(tp); got != isNew {
					t.Fatalf("step %d: Admit(%v) = %v, want %v", step, tp, got, isNew)
				}
				if isNew {
					md = md.insert(tp, 1)
				}
			case 9:
				// Since is defined on a relation never cloned, and a
				// never-cloned relation iterates in the model's order.
				if r.base != nil {
					continue
				}
				if mark >= 0 {
					if err := sameOrder(rowsOf(r.Since(mark).EachWhile), md[mark:]); err != nil {
						t.Fatalf("step %d: Since(%d): %v", step, mark, err)
					}
				}
				if mark = r.Mark(); mark != len(md) {
					t.Fatalf("step %d: Mark() = %d, want %d", step, mark, len(md))
				}
			default:
				tp, want := tuple(), 0
				if i := md.find(tp); i >= 0 {
					want = md[i].m
				}
				if got := r.Mult(tp); got != want {
					t.Fatalf("step %d: Mult(%v) = %d, want %d", step, tp, got, want)
				}
			}
			if err := sameRows(rowsOf(r.EachWhile), md); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
			if r.Distinct() != len(md) {
				t.Fatalf("step %d: Distinct %d, want %d", step, r.Distinct(), len(md))
			}
		}
		for i, v := range old {
			if err := sameRows(rowsOf(v.r.EachWhile), v.md); err != nil {
				t.Fatalf("version %d left by a Clone: %v", i, err)
			}
		}
	})
}
