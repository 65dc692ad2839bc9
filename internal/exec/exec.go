// Package exec is the shared physical-execution layer: classical
// relational operators (σ, ⋈, γ, dedup) implemented as streaming
// iterators over relation.Relation, composed functionally instead of
// materialize-and-rescan.
//
// Both evaluators lower onto this layer: internal/plan compiles SQL
// blocks into trees of these operators (EquiJoin and OuterHashJoin over a
// Build, GroupAggregate, Filter, Dedup), and internal/eval compiles ARC
// quantifier scopes — Datalog programs included — onto the same
// pipeline. A join whose build side is a stored relation probes that
// relation's own per-column-set hash index (IndexBuild), which the
// relation keeps across executions; any other build side is drained
// into a HashTable per execution. The enumeration paths (the rest of
// internal/eval, and internal/sqleval) use Scan/Probe directly.
package exec

import (
	"iter"
	"math/bits"

	"repro/internal/relation"
	"repro/internal/value"
)

// Seq is a stream of distinct tuples with bag multiplicities — the unit
// every operator consumes and produces. Yield returning false stops the
// producer (early termination propagates through compositions). A
// yielded tuple is valid until yield returns: a producer may write its
// next row into the same tuple, so a consumer that keeps a tuple copies
// it (docs/INVARIANTS.md, "A plan row lives until its yield returns").
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

// Filter streams the rows of in that keep accepts (σ). Running the
// stream again allocates nothing.
func Filter(in Seq, keep func(relation.Tuple, int) bool) Seq {
	f := &filter{in: in, keep: keep}
	f.next = f.row
	return f.run
}

// filter is a Filter stream's state, held here rather than in closures
// made per run.
type filter struct {
	in                Seq
	keep, next, yield func(relation.Tuple, int) bool
}

func (f *filter) run(yield func(relation.Tuple, int) bool) {
	f.yield = yield
	f.in(f.next)
}

func (f *filter) row(t relation.Tuple, m int) bool { return !f.keep(t, m) || f.yield(t, m) }

// Dedup streams the distinct tuples of in with multiplicity 1, in first-
// occurrence order (the set-semantics reading of the stream). It copies
// the values of every tuple it yields into its set, to recognise that
// tuple's duplicates. Its set is presized for hint's size, and a stream
// drained to its end records the number of distinct tuples in hint.
func Dedup(in Seq, hint *SizeHint) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		var seen set
		for t := range in {
			if seen.n == 0 {
				seen.w = len(t)
				seen.reserve(hint.Size())
			}
			if !seen.add(t, t.Hash()) {
				continue
			}
			if !yield(t, 1) {
				return
			}
		}
		hint.Record(seen.n)
	}
}

// set holds distinct tuples of w values each, found by hash through a
// relation.Chains and confirmed by Equal. Item j is slot j of the Chains.
// The set copies the values of each tuple it takes into its blocks, w
// values an item: the first heads items are head, the exact block
// reserve allocates, and after it block k of blocks holds minBlock<<k
// items. No block is ever copied.
type set struct {
	w      int
	head   []value.Value
	heads  int             // items head holds
	blocks [][]value.Value // block k holds minBlock<<k items
	n      int             // items held
	chains relation.Chains
}

const minBlock = 8

// at returns item j: head holds the first heads, then blocks 0..k-1 the
// next minBlock·(2^k - 1). Its capacity ends with it.
func (s *set) at(j int) relation.Tuple {
	w := s.w
	if j < s.heads {
		return s.head[j*w : j*w+w : j*w+w]
	}
	j -= s.heads
	k := bits.Len(uint(j/minBlock+1)) - 1
	i := (j - minBlock*(1<<k-1)) * w
	return s.blocks[k][i : i+w : i+w]
}

// reserve makes an empty set hold n items without growing.
func (s *set) reserve(n int) {
	if n <= minBlock || s.n > 0 {
		return
	}
	s.head, s.heads = make([]value.Value, n*s.w), n
	s.chains.Reserve(n)
}

// add puts a copy of t's values, whose hash is h, into the set unless it
// holds an item Equal to t, and reports whether it did.
func (s *set) add(t relation.Tuple, h uint64) bool {
	ch, p := s.chains.Find(h)
	for j := ch.First(); j >= 0; j = ch.Next(j) {
		if s.at(j).Equal(t) {
			return false
		}
	}
	if s.n == s.heads+minBlock*(1<<len(s.blocks)-1) {
		s.blocks = append(s.blocks, make([]value.Value, s.w*minBlock<<len(s.blocks)))
	}
	copy(s.at(s.n), t)
	s.n++
	s.chains.AddAt(h, p)
	return true
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
