package exec

import (
	"fmt"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
)

// AggFunc enumerates the aggregate functions γ supports.
type AggFunc int

const (
	// Count counts input rows (with bag weight under bag semantics).
	Count AggFunc = iota
	// CountDistinct counts distinct non-NULL values of the column.
	CountDistinct
	// Sum adds the column (NULL inputs skipped, SQL style).
	Sum
	// Avg is the mean of the non-NULL column values.
	Avg
	// Min is the least non-NULL column value.
	Min
	// Max is the greatest non-NULL column value.
	Max
	// CountCol counts non-NULL values of the column (SQL count(col),
	// where Count is count(*)).
	CountCol
)

// String names the function for error messages.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case CountDistinct:
		return "count-distinct"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case CountCol:
		return "count-col"
	}
	return fmt.Sprintf("agg(%d)", int(f))
}

// Agg is one aggregate column of a γ: Func applied to input column Col
// (Col is ignored for Count, which counts rows).
type Agg struct {
	Func AggFunc
	Col  int
}

// aggState accumulates one aggregate over one group: count is the
// weight of the non-NULL inputs it folded (of every row for Count), and
// acc the sum, minimum or maximum so far, as the function is.
type aggState struct {
	acc      value.Value
	count    int
	distinct *set[value.Value] // CountDistinct's values
}

// GroupAggregate is γ: it partitions in by the values at keyCols and
// streams one output tuple per group — the key values followed by one
// value per aggregate. Grouping is hash-based and the input is fully
// consumed before the first group is emitted (γ is a pipeline breaker).
// Conventions apply as in the rest of the repository: set semantics
// collapses bag weights to 1, and EmptyAggregate picks SUM's value over
// zero rows. With no key columns the operator emits exactly one group
// even over empty input (the SQL "group by true" behaviour); keyed
// grouping over empty input emits nothing. Keyed grouping presizes its
// table for hint's size and records in hint the number of groups once its
// input is consumed. The output tuples are cut from one array, so each is
// a tuple of its own that a consumer may keep.
func GroupAggregate(in Seq, keyCols []int, aggs []Agg, conv convention.Conventions, hint *SizeHint) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		gs := newGrouping(keyCols, aggs, conv)
		if len(keyCols) == 0 {
			gs.add(nil)
		} else {
			n := hint.Size()
			gs.reserve(n)
			gs.chains.Reserve(n)
		}
		for t, m := range in {
			g := 0
			if len(keyCols) > 0 {
				g = gs.of(t, t.HashAt(keyCols))
			}
			gs.observe(g, t, m)
		}
		if len(keyCols) > 0 {
			hint.Record(gs.n)
		}
		gs.emit(yield)
	}
}

// Numbered is γ over keyCols for rows whose groups come numbered
// (relation.Numbering): rows share a number exactly when their keys are
// Equal, and a row's group is read through its number rather than found
// by hashing its key. Its output is GroupAggregate's over the same rows,
// folded in the same order: groups in the order of their first rows,
// each keyed by its first row's values. A number no row carries is no
// group.
type Numbered struct {
	gs grouping
	// pos[num] is 1 + the number of the group num names, 0 before its
	// first row.
	pos []int32
}

// foldBlock is how many slots Fold reads a run's groups for at a time:
// the rows between two of a plan's polls, so a polled fold reads one
// block per stretch, into arrays small enough to live on the stack.
const foldBlock = 64

// NewNumbered returns an empty Numbered for rows numbered below groups.
func NewNumbered(groups int, keyCols []int, aggs []Agg, conv convention.Conventions) *Numbered {
	nb := &Numbered{gs: newGrouping(keyCols, aggs, conv), pos: make([]int32, groups)}
	nb.gs.reserve(groups)
	return nb
}

// Fold folds in the live slots lo ≤ s < hi of r, in order. It reads them
// in place, a block of slots at a time: first each slot's group, starting
// the groups that begin there, and multiplicity, then the block once per
// aggregate — count(*) reads the multiplicities alone, not the tuples.
// It stops at the first live slot whose sum or avg input is neither NULL
// nor numeric and returns it, after which nb's groups are not to be
// emitted; it returns -1 when there is none.
func (nb *Numbered) Fold(r *relation.NumberedRun, lo, hi int) int {
	set := nb.gs.conv.Semantics == convention.Set
	na := len(nb.gs.aggs)
	// The groups (-1 for a dead slot) and multiplicities of a block.
	var groups [foldBlock]int32
	var mults [foldBlock]int
	for ; lo < hi; lo += foldBlock {
		n := min(foldBlock, hi-lo)
		gs, ms := groups[:n], mults[:n]
		r.Nums(lo, gs)
		for k, num := range gs {
			if num < 0 {
				continue
			}
			g := nb.pos[num] - 1
			if g < 0 {
				g = int32(nb.gs.add(r.Tuple(lo + k)))
				nb.pos[num] = g + 1
			}
			gs[k] = g
		}
		if set {
			for k := range ms {
				ms[k] = 1
			}
		} else {
			r.Mults(lo, ms)
		}
		// The aggregates fold the block's slots below bad: all of them,
		// until a sum or avg meets a non-numeric input.
		bad := n
		for i, a := range nb.gs.aggs {
			states := nb.gs.states[i:]
			switch a.Func {
			case Count:
				for k, g := range gs {
					if g >= 0 {
						states[int(g)*na].count += ms[k]
					}
				}
			case Sum, Avg:
				for k, g := range gs[:bad] {
					if g < 0 {
						continue
					}
					t := r.Tuple(lo + k)
					if v := t[a.Col]; !v.IsNull() && !v.IsNumeric() {
						bad = k
						break
					}
					states[int(g)*na].observe(a, t, ms[k])
				}
			default:
				for k, g := range gs[:bad] {
					if g >= 0 {
						states[int(g)*na].observe(a, r.Tuple(lo+k), ms[k])
					}
				}
			}
		}
		if bad < n {
			return lo + bad
		}
	}
	return -1
}

// Emit records the number of groups in hint and yields one output tuple
// per group, as GroupAggregate does.
func (nb *Numbered) Emit(yield func(relation.Tuple, int) bool, hint *SizeHint) {
	hint.Record(nb.gs.n)
	nb.gs.emit(yield)
}

// grouping is γ's table of groups, numbered in first-occurrence order:
// group g's key is keys[g·len(keyCols):], its states are
// states[g·len(aggs):], and slot g of chains, which only the hashing path
// fills, is its key's hash.
type grouping struct {
	keyCols []int
	aggs    []Agg
	conv    convention.Conventions
	keys    []value.Value
	states  []aggState
	n       int
	chains  relation.Chains
}

func newGrouping(keyCols []int, aggs []Agg, conv convention.Conventions) grouping {
	return grouping{keyCols: keyCols, aggs: aggs, conv: conv}
}

// reserve sizes the table for n groups.
func (gs *grouping) reserve(n int) {
	if n > 0 {
		gs.keys = make([]value.Value, 0, n*len(gs.keyCols))
		gs.states = make([]aggState, 0, n*len(gs.aggs))
	}
}

// of returns the number of the group of the input row t, whose key hash
// is h, starting one if no group's key is Equal to t's values at keyCols.
func (gs *grouping) of(t relation.Tuple, h uint64) int {
	nk := len(gs.keyCols)
	ch, p := gs.chains.Find(h)
	for g := ch.First(); g >= 0; g = ch.Next(g) {
		if t.EqualAt(gs.keyCols, gs.keys[g*nk:]) {
			return g
		}
	}
	gs.chains.AddAt(h, p)
	return gs.add(t)
}

// add starts a group keyed by t's values at keyCols and returns its
// number. The input may be a scratch tuple: the key is copied out of it.
func (gs *grouping) add(t relation.Tuple) int {
	for _, c := range gs.keyCols {
		gs.keys = append(gs.keys, t[c])
	}
	for _, a := range gs.aggs {
		st := aggState{}
		if a.Func == CountDistinct {
			st.distinct = &set[value.Value]{}
		}
		gs.states = append(gs.states, st)
	}
	gs.n++
	return gs.n - 1
}

// observe folds the input row t, of multiplicity m, into group g.
func (gs *grouping) observe(g int, t relation.Tuple, m int) {
	if gs.conv.Semantics == convention.Set {
		m = 1
	}
	states := gs.states[g*len(gs.aggs):]
	for i, a := range gs.aggs {
		if a.Func == Count {
			states[i].count += m // count(*) reads no column
		} else {
			states[i].observe(a, t, m)
		}
	}
}

// emit yields every group's output tuple, in group order, each cut from
// one array.
func (gs *grouping) emit(yield func(relation.Tuple, int) bool) {
	nk, na := len(gs.keyCols), len(gs.aggs)
	w := nk + na
	rows := make([]value.Value, gs.n*w)
	for g := 0; g < gs.n; g++ {
		out := rows[g*w : (g+1)*w : (g+1)*w]
		copy(out, gs.keys[g*nk:(g+1)*nk])
		for i, a := range gs.aggs {
			out[nk+i] = gs.states[g*na+i].result(a, gs.conv)
		}
		if !yield(out, 1) {
			return
		}
	}
}

// observe folds one weighted input row into the state of an aggregate
// that reads a column (every one but Count), maintaining only what the
// aggregate function needs.
func (st *aggState) observe(a Agg, t relation.Tuple, w int) {
	v := t[a.Col]
	if v.IsNull() {
		return // SQL aggregates ignore NULL inputs
	}
	first := st.count == 0
	st.count += w
	switch a.Func {
	case CountDistinct:
		st.distinct.add(v, v.Hash(), value.Value.Equal)
	case Sum, Avg:
		contrib := v
		if w > 1 {
			if c, ok := value.Mul(v, value.Int(int64(w))); ok {
				contrib = c
			}
		}
		if first {
			st.acc = contrib
		} else if s, ok := value.Add(st.acc, contrib); ok {
			st.acc = s
		}
	case Min:
		if c, ok := v.Compare(st.acc); first || ok && c < 0 {
			st.acc = v
		}
	case Max:
		if c, ok := v.Compare(st.acc); first || ok && c > 0 {
			st.acc = v
		}
	}
}

// result finalizes the state into the aggregate's output value.
func (st *aggState) result(a Agg, conv convention.Conventions) value.Value {
	switch a.Func {
	case Count, CountCol:
		return value.Int(int64(st.count))
	case CountDistinct:
		return value.Int(int64(st.distinct.n))
	}
	if st.count == 0 {
		if a.Func == Sum && conv.EmptyAggregate == convention.ZeroOnEmpty {
			return value.Int(0)
		}
		return value.Null()
	}
	if a.Func == Avg {
		v, _ := value.Div(value.Float(st.acc.AsFloat()), value.Int(int64(st.count)))
		return v
	}
	return st.acc
}
