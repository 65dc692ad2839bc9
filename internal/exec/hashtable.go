package exec

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// HashTable is a materialized, hash-indexed build side for tuple joins:
// the planner's unit of join compilation. Rows are chained by the seeded
// hash of their key columns (value.Tuple.HashAt), which Equal values
// share. Candidates are therefore a superset of the Eq matches — unequal
// keys may collide — and callers re-check with EqMatch (strict 3VL True,
// so NULL keys never join).
type HashTable struct {
	cols   []int
	rows   []Row
	chains relation.Chains // slot i is rows[i]
	arity  int
}

// BuildHashTable drains in into a hash table keyed on cols. arity is the
// tuple width of the build side (needed for null-extension when the input
// is empty).
func BuildHashTable(in Seq, cols []int, arity int) *HashTable {
	ht := &HashTable{cols: slices.Clone(cols), arity: arity}
	for t, m := range in {
		ht.add(t, m, t.HashAt(cols))
	}
	return ht
}

// add appends a copy of the build row t, whose key hash is h.
func (ht *HashTable) add(t relation.Tuple, m int, h uint64) {
	ht.rows = append(ht.rows, Row{Tup: t.Clone(), Mult: m})
	ht.chains.Add(h)
}

// Len returns the number of distinct build rows.
func (ht *HashTable) Len() int { return len(ht.rows) }

// Arity returns the build-side tuple width.
func (ht *HashTable) Arity() int { return ht.arity }

// Rows returns the build rows in build order (callers must not mutate).
func (ht *HashTable) Rows() []Row { return ht.rows }

// Candidates calls f with (slot, row) for every build row that may
// Eq-match vals on the key columns: the rows of vals' hash chain, in build
// order. With no key columns every row is a candidate (the cross-join
// degenerate case). f returning false stops the enumeration.
func (ht *HashTable) Candidates(vals []value.Value, f func(slot int, r Row) bool) {
	if len(ht.cols) == 0 {
		for i, r := range ht.rows {
			if !f(i, r) {
				return
			}
		}
		return
	}
	ht.candidates(relation.Tuple(vals).Hash(), f)
}

// candidates calls f for the rows of the chain of hash h.
func (ht *HashTable) candidates(h uint64, f func(slot int, r Row) bool) {
	ch := ht.chains.Chain(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if !f(s, ht.rows[s]) {
			return
		}
	}
}

// EqMatch reports whether row r's key columns all strictly equal vals
// under 3VL (Eq must be True, so NULLs never match — SQL join identity,
// stricter than the Equal identity of the hash).
func (ht *HashTable) EqMatch(r Row, vals []value.Value) bool {
	for i, c := range ht.cols {
		if value.Eq.Apply(r.Tup[c], vals[i]) != value.True {
			return false
		}
	}
	return true
}

// valsAt extracts the probe key of t at cols into dst.
func valsAt(t relation.Tuple, cols []int, dst []value.Value) []value.Value {
	dst = dst[:0]
	for _, c := range cols {
		dst = append(dst, t[c])
	}
	return dst
}

// concatNull builds left ++ right where either side may be nil, in which
// case it is replaced by arity NULLs (outer-join null extension).
func concatNull(left relation.Tuple, leftArity int, right relation.Tuple, rightArity int) relation.Tuple {
	out := make(relation.Tuple, 0, leftArity+rightArity)
	if left == nil {
		for i := 0; i < leftArity; i++ {
			out = append(out, value.Null())
		}
	} else {
		out = append(out, left...)
	}
	if right == nil {
		for i := 0; i < rightArity; i++ {
			out = append(out, value.Null())
		}
	} else {
		out = append(out, right...)
	}
	return out
}

// EquiJoin streams the strict-equality hash join of probe against ht:
// for every candidate whose key columns Eq-match (3VL True) the probe
// row's values at probeCols, the concatenation probe ++ build — or build
// ++ probe when buildFirst, for a join that builds its left input —
// optionally filtered by the residual on predicate over the concatenated
// tuple. NULL keys never match. A non-nil op counts probe rows: one with
// at least one surviving match (post-residual) is a hit, otherwise a miss.
func EquiJoin(probe Seq, probeCols []int, ht *HashTable, buildFirst bool, on func(relation.Tuple) bool, op *trace.Op) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		vals := make([]value.Value, 0, len(probeCols))
		for pt, pm := range probe {
			vals = valsAt(pt, probeCols, vals)
			stop := false
			any := false
			ht.Candidates(vals, func(_ int, r Row) bool {
				if !ht.EqMatch(r, vals) {
					return true
				}
				var out relation.Tuple
				if buildFirst {
					out = concatNull(r.Tup, ht.arity, pt, len(pt))
				} else {
					out = concatNull(pt, len(pt), r.Tup, ht.arity)
				}
				if on != nil && !on(out) {
					return true
				}
				any = true
				if !yield(out, pm*r.Mult) {
					stop = true
					return false
				}
				return true
			})
			if op != nil {
				if any {
					op.ProbeHits++
				} else {
					op.ProbeMisses++
				}
			}
			if stop {
				return
			}
		}
	}
}

// OuterHashJoin streams the left-outer (full=false) or full-outer
// (full=true) hash join of left against ht. A left row joins every
// candidate whose keys Eq-match and whose concatenated tuple passes the
// residual on predicate (nil = always); rows with no match null-extend
// the build side. Under full=true, unmatched build rows are emitted
// null-extended on the probe side after the probe input drains. A
// non-nil op counts probe rows as hits or misses (a null-extended probe
// row is a miss).
func OuterHashJoin(left Seq, leftCols []int, ht *HashTable, on func(relation.Tuple) bool, full bool, leftArity int, op *trace.Op) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		var matched []bool
		if full {
			matched = make([]bool, len(ht.rows))
		}
		vals := make([]value.Value, 0, len(leftCols))
		for lt, lm := range left {
			vals = valsAt(lt, leftCols, vals)
			any := false
			stop := false
			ht.Candidates(vals, func(slot int, r Row) bool {
				if !ht.EqMatch(r, vals) {
					return true
				}
				out := concatNull(lt, len(lt), r.Tup, ht.arity)
				if on != nil && !on(out) {
					return true
				}
				any = true
				if full {
					matched[slot] = true
				}
				if !yield(out, lm*r.Mult) {
					stop = true
					return false
				}
				return true
			})
			if op != nil {
				if any {
					op.ProbeHits++
				} else {
					op.ProbeMisses++
				}
			}
			if stop {
				return
			}
			if !any {
				if !yield(concatNull(lt, len(lt), nil, ht.arity), lm) {
					return
				}
			}
		}
		if full {
			for slot, r := range ht.rows {
				if matched[slot] {
					continue
				}
				if !yield(concatNull(nil, leftArity, r.Tup, ht.arity), r.Mult) {
					return
				}
			}
		}
	}
}
