// ordered.go adds the ordered counterpart of the lazy hash indexes: a
// per-column sorted index (value.Less order) serving range predicates.
// Where Probe answers "rows whose column equals v", RangeProbe answers
// "rows whose column falls in [lo,hi]" with any combination of
// open/closed/unbounded ends — what exec.RangeScan runs on.
package relation

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// ordClass buckets values into the comparability classes of the Less
// total order: NULL < numerics (ints and floats interleaved) < strings
// < bools. Compare is total within a class (except NULL) and undefined
// across classes.
func ordClass(v value.Value) int {
	switch v.Kind() {
	case value.KindNull:
		return 0
	case value.KindInt, value.KindFloat:
		return 1
	case value.KindString:
		return 2
	}
	return 3
}

// orderedForLocked returns the sorted index on col over all of s.rows:
// slots in ascending column order under value.Less, ties in slot order.
// A cached index is immutable and covers the prefix of rows that existed
// when it was built (only appends happen under it — RemoveKeys drops the
// cache); rows added since are sorted among themselves and merged in,
// which costs an insert-then-range-probe loop O(rows) per round instead
// of a full sort. The caller must hold the write lock.
func (s *segment) orderedForLocked(col int) []int {
	old := s.ordIdx[col]
	if len(old) == len(s.rows) {
		return old
	}
	less := func(a, b int) bool { return s.rows[a].tup[col].Less(s.rows[b].tup[col]) }
	fresh := make([]int, len(s.rows)-len(old))
	for i := range fresh {
		fresh[i] = len(old) + i
	}
	sort.SliceStable(fresh, func(i, j int) bool { return less(fresh[i], fresh[j]) })
	ix := fresh
	if len(old) > 0 {
		ix = make([]int, 0, len(s.rows))
		for len(old) > 0 && len(fresh) > 0 {
			if less(fresh[0], old[0]) {
				ix, fresh = append(ix, fresh[0]), fresh[1:]
			} else {
				ix, old = append(ix, old[0]), old[1:]
			}
		}
		ix = append(append(ix, old...), fresh...)
	}
	if s.ordIdx == nil {
		s.ordIdx = make(map[int][]int)
	}
	s.ordIdx[col] = ix
	return ix
}

// orderedFor is orderedForLocked for a frozen segment.
func (s *segment) orderedFor(col int) []int {
	s.mu.RLock()
	ix := s.ordIdx[col]
	s.mu.RUnlock()
	if len(ix) == len(s.rows) {
		return ix
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orderedForLocked(col)
}

// RangeProbe calls f for each distinct tuple whose value at col falls
// between lo and hi under Compare semantics, with its multiplicity,
// in ascending column order; f returning false stops the probe. A NULL
// bound means unbounded on that side (at least one bound must be set).
// Matching follows the 3VL comparison contract exactly: NULL column
// values never match, and values incomparable with the bounds (a string
// against numeric bounds) never match — so consuming a `lo <= c AND
// c <= hi` filter into a RangeProbe preserves query semantics
// bit-for-bit. Bounds of different classes (c > 1 AND c < 'z') match
// nothing, mirroring the conjunction of two class-restricted predicates.
func (r *Relation) RangeProbe(col int, lo, hi value.Value, loIncl, hiIncl bool, f func(Tuple, int) bool) {
	if col < 0 || col >= len(r.attrs) {
		panic(fmt.Sprintf("RangeProbe: relation %s has no column %d", r.name, col))
	}
	if lo.IsNull() && hi.IsNull() {
		panic("RangeProbe: both bounds unbounded")
	}
	cls := ordClass(lo)
	if lo.IsNull() {
		cls = ordClass(hi)
	} else if !hi.IsNull() && ordClass(hi) != cls {
		return // conjunction of two different-class predicates: empty
	}
	// Capture the view and the delta's sorted index under one lock
	// acquisition, extending the index first if rows were added since.
	r.mu.RLock()
	v := r.viewLocked()
	ix := r.ordIdx[col]
	r.mu.RUnlock()
	if len(ix) != len(v.rows) {
		r.mu.Lock()
		v = r.viewLocked()
		ix = r.orderedForLocked(col)
		r.mu.Unlock()
	}

	// beforeLo: x sorts strictly before the range start. Downward-closed
	// in the Less order, so sort.Search finds the boundary.
	beforeLo := func(x value.Value) bool {
		if c := ordClass(x); c != cls {
			return c < cls
		}
		if lo.IsNull() {
			return false
		}
		c, _ := x.Compare(lo)
		if loIncl {
			return c < 0
		}
		return c <= 0
	}
	// withinHi: x sorts at or before the range end.
	withinHi := func(x value.Value) bool {
		if c := ordClass(x); c != cls {
			return c < cls
		}
		if hi.IsNull() {
			return true
		}
		c, _ := x.Compare(hi)
		if hiIncl {
			return c <= 0
		}
		return c < 0
	}
	// cut narrows a sorted index over rows to the slots inside the range.
	cut := func(rows []row, ix []int) []int {
		start := sort.Search(len(ix), func(i int) bool { return !beforeLo(rows[ix[i]].tup[col]) })
		end := start + sort.Search(len(ix)-start, func(i int) bool { return !withinHi(rows[ix[start+i]].tup[col]) })
		return ix[start:end]
	}
	delta := cut(v.rows, ix)
	var base []int
	if v.base != nil {
		base = cut(v.base.rows, v.base.orderedFor(col))
	}
	// Stable merge of the base's run, past the dead set, with the delta's:
	// on a tie the base row goes first, as in iteration order.
	for len(base) > 0 || len(delta) > 0 {
		var rw *row
		switch {
		case len(base) > 0 && v.dead.has(base[0]):
			base = base[1:]
			continue
		case len(delta) == 0 || len(base) > 0 && !v.rows[delta[0]].tup[col].Less(v.base.rows[base[0]].tup[col]):
			rw, base = &v.base.rows[base[0]], base[1:]
		default:
			rw, delta = &v.rows[delta[0]], delta[1:]
		}
		if !f(rw.tup, rw.count()) {
			return
		}
	}
}
