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
	r.insertHashed(two, h, 1)
	r.insertHashed(three, h, 1)
	r.insertHashed(twoF, h, 2)
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
	c.insertHashed(three, h, 1) // retires the base row, re-adds it to the delta
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

// identical reports whether a and b hold the same values of the same
// kinds, column by column: 2 and 2.0 are Equal, not identical.
func identical(a, b Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y value.Value) bool { return x.Kind() == y.Kind() && x.Equal(y) })
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

// FuzzRelationOps decodes bytes into a sequence of insert (of a fresh
// tuple, or of a scratch tuple overwritten at once), Admit, RemoveKeys,
// Clone, Probe, RangeProbe, Numbering, Mult, Mark/Since/Recut and hold
// calls over a small value domain, and after every step compares the
// relation — and every earlier version a Clone or a written window left
// behind — against a naive model: a slice of distinct tuples compared
// with Equal. A window Since cuts must hold the model's rows past the
// mark, in order, and a Numbering must give two rows one number iff they
// are Equal on its columns. A hold keeps tuples read through Each, Probe,
// RangeProbe or a Numbering, of the relation or of its window, across
// every later step, each of which must leave their values as they were
// read, and appends to one of them, which must change nothing any
// relation holds.
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
	// Holds (op 10) from each reader, carried across growth, a Clone of
	// either side, removals, scratch inserts (op 1), a window and its
	// re-cut, a write into the window, and a fold.
	f.Add([]byte{0, 1, 2, 0, 0, 2, 3, 0, 0, 3, 4, 0, 10, 0, 0, 2, 10, 0, 1, 1, 3, 1, 10, 0, 2, 2, 0, 1, 0,
		1, 5, 6, 0, 1, 6, 7, 0, 10, 0, 3, 0, 1, 3, 0, 10, 0, 0, 1, 2, 0, 1, 2, 10, 1, 0, 2, 0,
		9, 8, 8, 9, 8, 9, 10, 9, 10, 1, 0, 2, 8, 11, 12, 9, 10, 1, 1, 0, 1, 9, 8, 13, 14, 9, 0, 0,
		3, 1, 0, 2, 4, 0, 0, 5, 6, 0, 3, 0, 0, 7, 8, 0, 3, 1, 0, 9, 1, 0, 3, 0, 10, 0, 0, 5, 10, 0, 3, 0})
	// A window cut while its relation's arrays have room past it, a write
	// into the window, then a row the relation appends into that room.
	f.Add([]byte{0, 1, 1, 0, 9, 0, 2, 2, 0, 0, 3, 3, 0, 9, 0, 6, 6, 0, 7, 7, 0})
	// A Clone of a delta with room past its end, a write into the source
	// kept behind, then a write into the copy that goes on.
	f.Add([]byte{0, 1, 1, 0, 3, 1, 1, 0, 2, 2, 0, 0, 3, 3, 0, 0, 5, 5, 0, 3, 1, 0, 6, 6, 0, 7, 7, 0})
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
		checkOld := func(when string) {
			for i, v := range old {
				if err := sameRows(rowsOf(v.r.EachWhile), v.md); err != nil {
					t.Fatalf("%s: version %d left by a Clone or a window: %v", when, i, err)
				}
			}
		}
		type held struct{ t, want Tuple }
		var holds []held
		mark := -1 // the last Mark taken, while a window cut at it is defined
		var win *Relation
		var winMd model // win's rows as cut; r's later writes reach only their counts
		scratch := make(Tuple, 2)
		for step := 0; len(data) > 0 && step < 256; step++ {
			op := next() % 11
			switch op {
			case 0:
				tp, n := tuple(), 1+next()%3
				r.InsertMult(tp, n)
				md = md.insert(tp, n)
			case 1:
				// The relation copies what it takes: the caller's tuple
				// is its own again once InsertMult returns.
				n := 1 + next()%3
				scratch[0], scratch[1] = val(), val()
				r.InsertMult(scratch, n)
				md = md.insert(scratch, n)
				scratch[0], scratch[1] = val(), val()
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
				// The side kept may take one more write, before the
				// other takes any: the two share what the source held.
				if kept := &old[len(old)-1]; next()%3 == 0 {
					tp := tuple()
					kept.r.InsertMult(tp, 1)
					kept.md = kept.md.insert(tp, 1)
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
					if win == nil {
						win = r.Since(mark)
					} else {
						r.Recut(win, mark)
					}
					winMd = md[mark:].clone()
					if err := sameOrder(rowsOf(win.EachWhile), winMd); err != nil {
						t.Fatalf("step %d: Since(%d): %v", step, mark, err)
					}
					// A write into the window reaches neither r nor the
					// rows r appends later; the window is kept as a
					// version of its own.
					if next()%3 == 0 {
						tp := tuple()
						win.InsertMult(tp, 1)
						old, win = append(old, version{win, md[mark:].clone().insert(tp, 1)}), nil
					}
				}
				if mark = r.Mark(); mark != len(md) {
					t.Fatalf("step %d: Mark() = %d, want %d", step, mark, len(md))
				}
			case 10:
				src := r
				if win != nil && next()%2 == 0 {
					src = win
				}
				var got []Tuple
				keep := func(t Tuple, _ int) bool {
					got = append(got, t)
					return len(got) < 3
				}
				switch next() % 4 {
				case 0:
					src.EachWhile(keep)
				case 1:
					src.Probe([]int{next() % 2}, []value.Value{val()}, keep)
				case 2:
					if lo := val(); !lo.IsNull() {
						src.RangeProbe(next()%2, lo, value.Null(), true, false, keep)
					}
				default:
					for _, run := range src.Numbering(colSets[next()%len(colSets)]).Runs() {
						for s := 0; s < run.Len() && len(got) < 3; s++ {
							if !run.Dead(s) {
								got = append(got, run.Tuple(s))
							}
						}
					}
				}
				for _, tp := range got {
					holds = append(holds, held{tp, tp.Clone()})
				}
				if len(holds) == 0 {
					continue
				}
				h := holds[next()%len(holds)]
				if grown := append(h.t, val(), val()); len(grown) != len(h.want)+2 {
					t.Fatalf("step %d: appended to %v, got %v", step, h.want, grown)
				}
				checkOld(fmt.Sprintf("step %d: after an append to a held tuple", step))
				if win != nil {
					got := rowsOf(win.EachWhile)
					same := len(got) == len(winMd)
					for i := 0; same && i < len(got); i++ {
						same = identical(got[i].t, winMd[i].t)
					}
					if !same {
						t.Fatalf("step %d: after an append to a held tuple the window holds %v, cut as %v", step, got, winMd)
					}
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
			for i, h := range holds {
				if !identical(h.t, h.want) {
					t.Fatalf("step %d (op %d): held tuple %d reads %v, read as %v", step, op, i, h.t, h.want)
				}
			}
		}
		checkOld("at the end")
	})
}
