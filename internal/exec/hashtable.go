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
// is empty). The table is presized for hint's size, and records its row
// count in hint once in is drained.
func BuildHashTable(in Seq, cols []int, arity int, hint *SizeHint) *HashTable {
	ht := &HashTable{cols: slices.Clone(cols), arity: arity}
	if n := hint.Size(); n > 0 {
		ht.rows = make([]Row, 0, n)
		ht.chains.Reserve(n)
	}
	for t, m := range in {
		ht.add(t, m, t.HashAt(cols))
	}
	hint.Record(len(ht.rows))
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
func (ht *HashTable) EqMatch(r Row, vals []value.Value) bool { return eqMatch(r.Tup, ht.cols, vals) }

// eqMatch reports whether t's values at cols all strictly equal vals.
func eqMatch(t relation.Tuple, cols []int, vals []value.Value) bool {
	for i, c := range cols {
		if value.Eq.Apply(t[c], vals[i]) != value.True {
			return false
		}
	}
	return true
}

// Build is the build side of a hash join: the rows a probe key may match.
// A HashTable drained from a stream is one; an IndexBuild, a stored
// relation probed through its own index, is the other. Both offer a key's
// candidates in the order a scan of the build input streams them.
type Build interface {
	// Candidates calls f with (slot, row) for every build row that may
	// Eq-match vals on the key columns, in build order; f returning false
	// stops the enumeration. Callers re-check each with EqMatch.
	Candidates(vals []value.Value, f func(slot int, r Row) bool)
	// EqMatch reports whether r's key columns all strictly equal vals.
	EqMatch(r Row, vals []value.Value) bool
	// Arity returns the build-side tuple width.
	Arity() int
}

// IndexBuild is a stored relation as a join's build side: a probe walks
// the relation's own hash index on the key columns, plus any fixed
// columns pushed down onto the build scan (relation.Prober), built once
// per base version and shared by every execution. Nothing is built per
// execution, and the candidates are those of a HashTable drained from a
// scan of the relation begun when the IndexBuild was made.
type IndexBuild struct {
	p     *relation.Prober
	cols  []int         // the key columns, then the fixed ones
	key   []value.Value // the probe key, then the fixed values
	arity int
	// Read, when non-nil, counts the build rows probes return (EXPLAIN
	// ANALYZE's rows for the scan the index stands in for).
	Read *int64
}

// NewIndexBuild probes rel on keyCols, restricted to the rows whose
// values at fixedCols are Equal to fixedVals.
func NewIndexBuild(rel *relation.Relation, keyCols, fixedCols []int, fixedVals []value.Value) *IndexBuild {
	cols := append(keyCols[:len(keyCols):len(keyCols)], fixedCols...)
	key := make([]value.Value, len(cols))
	copy(key[len(keyCols):], fixedVals)
	return &IndexBuild{p: rel.Prober(cols), cols: cols, key: key, arity: rel.Arity()}
}

// Candidates calls f for the rows of the relation whose key columns are
// Equal to vals and whose fixed columns hold the fixed values, in
// iteration order, each with slot -1: an IndexBuild numbers no rows, so a
// full outer join, which marks the build rows it matched, needs a
// HashTable.
func (b *IndexBuild) Candidates(vals []value.Value, f func(slot int, r Row) bool) {
	copy(b.key, vals)
	b.p.Probe(b.key, func(t relation.Tuple, m int) bool {
		if b.Read != nil {
			*b.Read++
		}
		return f(-1, Row{Tup: t, Mult: m})
	})
}

// EqMatch reports whether r's key columns all strictly equal vals.
func (b *IndexBuild) EqMatch(r Row, vals []value.Value) bool {
	return eqMatch(r.Tup, b.cols[:len(vals)], vals)
}

// Arity returns the relation's width.
func (b *IndexBuild) Arity() int { return b.arity }

// valsAt extracts the probe key of t at cols into dst.
func valsAt(t relation.Tuple, cols []int, dst []value.Value) []value.Value {
	dst = dst[:0]
	for _, c := range cols {
		dst = append(dst, t[c])
	}
	return dst
}

// concatInto writes left ++ right into out, reusing its array when it is
// large enough, where a nil side stands for arity NULLs (outer-join null
// extension), and returns the tuple written.
func concatInto(out, left relation.Tuple, leftArity int, right relation.Tuple, rightArity int) relation.Tuple {
	n := leftArity + rightArity
	if cap(out) < n {
		out = make(relation.Tuple, n)
	}
	out = out[:n]
	fillOrNull(out[:leftArity], left)
	fillOrNull(out[leftArity:], right)
	return out
}

// fillOrNull copies src into dst, or NULLs when src is nil.
func fillOrNull(dst, src relation.Tuple) {
	if src == nil {
		for i := range dst {
			dst[i] = value.Null()
		}
		return
	}
	copy(dst, src)
}

// EquiJoin streams the strict-equality hash join of probe against b: for
// every candidate whose key columns Eq-match (3VL True) the probe row's
// values at probeCols, the concatenation probe ++ build — or build ++
// probe when buildFirst, for a join that builds its left input —
// optionally filtered by the residual on predicate over the concatenated
// tuple. NULL keys never match. Every output row is written into one
// tuple per execution (see Seq). A non-nil op counts probe rows: one with
// at least one surviving match (post-residual) is a hit, otherwise a miss.
func EquiJoin(probe Seq, probeCols []int, b Build, buildFirst bool, on func(relation.Tuple) bool, op *trace.Op) Seq {
	return hashJoin(probe, probeCols, b, on, op, buildFirst, false, false, 0)
}

// OuterHashJoin streams the left-outer (full=false) or full-outer
// (full=true) hash join of left against b. A left row joins every
// candidate whose keys Eq-match and whose concatenated tuple passes the
// residual on predicate (nil = always); rows with no match null-extend
// the build side. Under full=true, unmatched build rows are emitted
// null-extended on the probe side after the probe input drains, which
// takes b to be a *HashTable. Every output row is written into one tuple
// per execution (see Seq). A non-nil op counts probe rows as hits or
// misses (a null-extended probe row is a miss).
func OuterHashJoin(left Seq, leftCols []int, b Build, on func(relation.Tuple) bool, full bool, leftArity int, op *trace.Op) Seq {
	return hashJoin(left, leftCols, b, on, op, false, true, full, leftArity)
}

// hashJoin is EquiJoin (outer false) and OuterHashJoin (outer true).
func hashJoin(probe Seq, probeCols []int, b Build, on func(relation.Tuple) bool, op *trace.Op, buildFirst, outer, full bool, leftArity int) Seq {
	j := &joiner{probe: probe, probeCols: probeCols, b: b, on: on, op: op,
		buildFirst: buildFirst, outer: outer, full: full, leftArity: leftArity,
		vals: make([]value.Value, 0, len(probeCols))}
	// b is an interface, so a callback handed to it is allocated: once per
	// stream, as is the one handed to probe.
	j.match, j.next = j.candidate, j.row
	return j.run
}

// joiner is a hashJoin stream's state. It lives here rather than in
// closures made per run, so running the stream again allocates nothing
// (a full join's matched marks aside).
type joiner struct {
	probe                   Seq
	probeCols               []int
	b                       Build
	on                      func(relation.Tuple) bool
	op                      *trace.Op
	buildFirst, outer, full bool
	leftArity               int

	match   func(int, Row) bool            // candidate
	next    func(relation.Tuple, int) bool // row
	yield   func(relation.Tuple, int) bool
	matched []bool
	vals    []value.Value
	out, pt relation.Tuple
	pm      int
	hit     bool
	stop    bool
}

func (j *joiner) run(yield func(relation.Tuple, int) bool) {
	j.yield, j.stop = yield, false
	if j.full {
		j.matched = make([]bool, j.b.(*HashTable).Len())
	}
	j.probe(j.next)
	if !j.full || j.stop {
		return
	}
	for slot, r := range j.b.(*HashTable).rows {
		if j.matched[slot] {
			continue
		}
		j.out = concatInto(j.out, nil, j.leftArity, r.Tup, j.b.Arity())
		if !yield(j.out, r.Mult) {
			return
		}
	}
}

// row joins one probe row.
func (j *joiner) row(pt relation.Tuple, pm int) bool {
	j.pt, j.pm = pt, pm
	j.vals = valsAt(pt, j.probeCols, j.vals)
	j.hit = false
	j.b.Candidates(j.vals, j.match)
	if j.op != nil {
		if j.hit {
			j.op.ProbeHits++
		} else {
			j.op.ProbeMisses++
		}
	}
	if j.stop {
		return false
	}
	if j.outer && !j.hit {
		j.out = concatInto(j.out, pt, len(pt), nil, j.b.Arity())
		if !j.yield(j.out, pm) {
			j.stop = true
			return false
		}
	}
	return true
}

// candidate joins the probe row to one build row that may match it.
func (j *joiner) candidate(slot int, r Row) bool {
	if !j.b.EqMatch(r, j.vals) {
		return true
	}
	if j.buildFirst {
		j.out = concatInto(j.out, r.Tup, j.b.Arity(), j.pt, len(j.pt))
	} else {
		j.out = concatInto(j.out, j.pt, len(j.pt), r.Tup, j.b.Arity())
	}
	if j.on != nil && !j.on(j.out) {
		return true
	}
	j.hit = true
	if j.full {
		j.matched[slot] = true
	}
	if !j.yield(j.out, j.pm*r.Mult) {
		j.stop = true
		return false
	}
	return true
}
