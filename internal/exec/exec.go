// Package exec is the shared physical-execution layer: classical
// relational operators (σ, ⋈, γ, dedup) implemented as streaming
// iterators over relation.Relation, composed functionally instead of
// materialize-and-rescan. Equality joins probe the lazy hash indexes that
// Relation maintains per attribute set, so an indexed join is one hash
// lookup per probe row rather than a nested full scan.
//
// Both evaluators lower onto this layer: internal/plan compiles SQL
// blocks into trees of these operators (EquiJoin and OuterHashJoin over
// HashTable, GroupAggregate, Filter, Dedup), and
// internal/eval compiles ARC quantifier scopes — Datalog programs
// included — onto the same pipeline. The enumeration paths (the rest of
// internal/eval, and internal/sqleval) use Scan/Probe directly.
package exec

import (
	"iter"

	"repro/internal/relation"
	"repro/internal/value"
)

// Seq is a stream of distinct tuples with bag multiplicities — the unit
// every operator consumes and produces. Yield returning false stops the
// producer (early termination propagates through compositions).
type Seq = iter.Seq2[relation.Tuple, int]

// Scan streams every distinct tuple of r with its multiplicity, in
// insertion order.
func Scan(r *relation.Relation) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		r.EachWhile(yield)
	}
}

// Probe streams the tuples of r whose values at cols equal vals, via r's
// lazy hash index on cols. With no columns it degenerates to Scan.
func Probe(r *relation.Relation, cols []int, vals []value.Value) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		r.Probe(cols, vals, yield)
	}
}

// RangeScan streams the distinct tuples of r whose value at col lies
// between lo and hi under Compare semantics (a NULL bound leaves that
// side unbounded), in ascending column order, via r's lazy per-column
// ordered index. NULL column values and values incomparable with the
// bounds never match, so the stream is exactly the rows a 3VL filter on
// the consumed range predicate would keep.
func RangeScan(r *relation.Relation, col int, lo, hi value.Value, loIncl, hiIncl bool) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		r.RangeProbe(col, lo, hi, loIncl, hiIncl, yield)
	}
}

// Filter streams the rows of in that keep accepts (σ).
func Filter(in Seq, keep func(relation.Tuple, int) bool) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		for t, m := range in {
			if !keep(t, m) {
				continue
			}
			if !yield(t, m) {
				return
			}
		}
	}
}

// Dedup streams the distinct tuples of in with multiplicity 1, in first-
// occurrence order (the set-semantics reading of the stream).
func Dedup(in Seq) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		seen := map[string]bool{}
		var kb []byte
		for t, _ := range in {
			kb = t.AppendKey(kb[:0])
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			if !yield(t, 1) {
				return
			}
		}
	}
}

// Materialize drains in into a fresh relation with the given name and
// attributes, merging multiplicities of equal tuples.
func Materialize(in Seq, name string, attrs ...string) *relation.Relation {
	out := relation.New(name, attrs...)
	for t, m := range in {
		out.InsertMult(t, m)
	}
	return out
}

// Collect drains in into a slice of (tuple, multiplicity) pairs. Tuples
// are cloned, so the result is safe to retain.
func Collect(in Seq) []Row {
	var out []Row
	for t, m := range in {
		out = append(out, Row{Tup: t.Clone(), Mult: m})
	}
	return out
}

// Row is one collected stream element.
type Row struct {
	Tup  relation.Tuple
	Mult int
}
