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

// aggState accumulates one aggregate over one group.
type aggState struct {
	sum      value.Value
	min, max value.Value
	count    int
	distinct *set[value.Value] // CountDistinct's values
	haveAny  bool
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
// input is consumed.
func GroupAggregate(in Seq, keyCols []int, aggs []Agg, conv convention.Conventions, hint *SizeHint) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		gs := &grouping{keyCols: keyCols, aggs: aggs}
		if len(keyCols) > 0 {
			if n := hint.Size(); n > 0 {
				gs.groups = make([]*group, 0, n)
				gs.chains.Reserve(n)
			}
		} else {
			gs.of(relation.Tuple{}, 0)
		}
		for t, m := range in {
			w := m
			if conv.Semantics == convention.Set {
				w = 1
			}
			var g *group
			if len(keyCols) == 0 {
				g = gs.groups[0]
			} else {
				g = gs.of(t, t.HashAt(keyCols))
			}
			for i, a := range aggs {
				g.states[i].observe(a, t, w)
			}
		}
		if len(keyCols) > 0 {
			hint.Record(len(gs.groups))
		}
		for _, g := range gs.groups {
			out := make(relation.Tuple, 0, len(g.key)+len(aggs))
			out = append(out, g.key...)
			for i, a := range aggs {
				out = append(out, g.states[i].result(a, conv))
			}
			if !yield(out, 1) {
				return
			}
		}
	}
}

// grouping is γ's table of groups, in first-occurrence order and chained
// by the hash of their keys.
type grouping struct {
	keyCols []int
	aggs    []Agg
	groups  []*group
	chains  relation.Chains // slot i is groups[i]
}

type group struct {
	key    relation.Tuple
	states []aggState
}

// of returns the group of the input row t, whose key hash is h, starting
// one if no group's key is Equal to t's values at keyCols.
func (gs *grouping) of(t relation.Tuple, h uint64) *group {
	ch := gs.chains.Chain(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if g := gs.groups[s]; t.EqualAt(gs.keyCols, g.key) {
			return g
		}
	}
	// The input may be a scratch tuple: the key is copied out of it.
	key := make(relation.Tuple, len(gs.keyCols))
	for j, c := range gs.keyCols {
		key[j] = t[c]
	}
	states := make([]aggState, len(gs.aggs))
	for i := range states {
		if gs.aggs[i].Func == CountDistinct {
			states[i].distinct = &set[value.Value]{}
		}
	}
	g := &group{key: key, states: states}
	gs.groups = append(gs.groups, g)
	gs.chains.Add(h)
	return g
}

// observe folds one weighted input row into the state, maintaining only
// what the aggregate function needs.
func (st *aggState) observe(a Agg, t relation.Tuple, w int) {
	if a.Func == Count {
		st.count += w
		st.haveAny = true
		return
	}
	v := t[a.Col]
	if v.IsNull() {
		return // SQL aggregates ignore NULL inputs
	}
	st.count += w
	switch a.Func {
	case CountCol:
		st.haveAny = true
	case CountDistinct:
		st.distinct.add(v, v.Hash(), value.Value.Equal)
		st.haveAny = true
	case Sum, Avg:
		contrib := v
		if w > 1 {
			if c, ok := value.Mul(v, value.Int(int64(w))); ok {
				contrib = c
			}
		}
		if !st.haveAny {
			st.sum = contrib
			st.haveAny = true
			return
		}
		if s, ok := value.Add(st.sum, contrib); ok {
			st.sum = s
		}
	case Min:
		if !st.haveAny {
			st.min = v
			st.haveAny = true
			return
		}
		if c, ok := v.Compare(st.min); ok && c < 0 {
			st.min = v
		}
	case Max:
		if !st.haveAny {
			st.max = v
			st.haveAny = true
			return
		}
		if c, ok := v.Compare(st.max); ok && c > 0 {
			st.max = v
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
	case Sum:
		if !st.haveAny {
			if conv.EmptyAggregate == convention.ZeroOnEmpty {
				return value.Int(0)
			}
			return value.Null()
		}
		return st.sum
	case Avg:
		if !st.haveAny {
			return value.Null()
		}
		v, _ := value.Div(value.Float(st.sum.AsFloat()), value.Int(int64(st.count)))
		return v
	case Min:
		if !st.haveAny {
			return value.Null()
		}
		return st.min
	case Max:
		if !st.haveAny {
			return value.Null()
		}
		return st.max
	}
	return value.Null()
}
