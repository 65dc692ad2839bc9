// Package relation implements flat relations in the named perspective the
// paper argues for (Section 2.1): tuples are accessed by attribute name,
// never by position, and every relation carries multiplicities so the same
// instance can be interpreted under set or bag semantics — the paper's
// point that set vs bag is a convention, not part of the language
// (Section 2.7).
//
// A stored tuple is identified by its seeded value.Tuple.Hash, confirmed
// by Equal: every index is a set of hash chains (hash.go), so 2 and 2.0
// are one tuple and a hash collision never merges or splits two.
//
// Representation: a Relation is an optional immutable base segment (rows,
// the tuple index and lazily built indexes, shared by pointer between
// any number of versions), an immutable dead set retiring some of the
// base's slots, and a private mutable delta — all a relation that was
// never cloned consists of. Clone shares the base and copies only the
// delta (see version.go), so a version costs what it changed. Nothing a
// mutation does writes into memory another version, or a view captured
// earlier, can reach.
//
// Concurrency contract: a Relation is safe for concurrent use. Readers
// (Probe, Each, Mult, …) capture a view — base, dead set, delta rows —
// under a read lock and then iterate without holding it, so reader
// callbacks may re-enter the relation — including inserting into the
// relation being iterated, the pattern the semi-naive fixpoint engine
// relies on. Writers (InsertMult, RemoveKeys) hold the write lock for the
// whole mutation, including the incremental maintenance of every cached
// hash index. Multiplicity bumps of existing delta rows are atomic, so an
// unlocked reader iterating a view observes either the old or the new
// count, never a torn value. Iteration sees the relation as of the view;
// tuples inserted while a reader is mid-iteration appear in subsequent
// probes/scans (the probe-insert-probe semantics the index tests pin),
// and tuples removed meanwhile are still streamed.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// Tuple is one row of a relation; values align with the relation's Attrs.
// It is value.Tuple, whose Hash and Equal are a stored tuple's identity.
type Tuple = value.Tuple

// row is one stored distinct tuple. mult is accessed atomically: readers
// iterate captured views of the rows slice without holding the relation
// lock, while a writer may bump the count of an existing delta row in
// place. (Rows of a frozen segment are never bumped; see insert.)
type row struct {
	tup  Tuple
	mult int64
}

// count loads the row's multiplicity.
func (rw *row) count() int { return int(atomic.LoadInt64(&rw.mult)) }

// segment is a slot-addressed run of distinct tuples with its tuple index
// and lazily built indexes. A Relation embeds one as its delta and
// mutates it under mu; a base segment is frozen at construction — its
// rows and tuple index never change again, and mu guards only the lazy
// builds of hashIdx, nums and ordIdx entries, each of which is immutable
// once built.
type segment struct {
	mu   sync.RWMutex
	rows []row
	// index is the tuple index, the hash index over all columns: it finds
	// the slot of a stored tuple, and serves Probe on all columns. A base
	// segment always has one. A delta builds it lazily, like every other
	// index, on the first lookup that needs it — a lookup in at most one
	// row compares that row instead — so a window that is only scanned (a
	// fixpoint round's delta, see Since) never has one.
	index *hashIndex
	// hashIdx caches the hash indexes on other column sets for Probe:
	// column-set signature -> index. Built lazily under the write lock and,
	// in a delta, maintained incrementally: inserting a new distinct tuple
	// appends its slot to its chain in every cached index (multiplicity
	// bumps keep slots valid as-is), so the semi-naive Datalog delta loop
	// and other insert-heavy workloads never pay for wholesale rebuilds.
	hashIdx map[string]*hashIndex
	// ordIdx caches per-column sorted indexes over rows for RangeProbe
	// (see ordered.go). Each is immutable and covers a prefix of rows; a
	// probe that finds one behind extends it by a merge.
	ordIdx map[int][]int
	// nums caches the group numberings γ reads (number.go): column-set
	// signature -> numbering. Kept as hashIdx is: built lazily under the
	// write lock and, in a delta, extended by every new distinct tuple.
	nums map[string]*numbering
}

// Relation is a multiset of tuples over a fixed attribute list. The zero
// value is not usable; construct with New. Iteration order is live base
// rows in slot order, then delta rows in insertion order — plain insertion
// order for a relation that was never cloned; canonical comparisons sort.
type Relation struct {
	name  string
	attrs []string
	pos   map[string]int // attribute name -> column

	// base and dead are the shared part (version.go): the rows of base
	// that dead does not retire belong to the relation. Both are immutable;
	// a mutation replaces the dead pointer, Clone may replace both. base
	// is nil for a relation that was never cloned, and every path then
	// runs on the delta alone.
	base *segment
	dead *deadSet

	// The embedded segment is the delta: rows this version holds privately.
	// A tuple lives in the delta or in base's live rows, never both. Its mu
	// is the relation's lock and guards base and dead too.
	segment

	// window marks a relation Since cut from another one's rows, whose row
	// array it shares until its first write copies it (ownRowsLocked).
	window bool
}

// smallAttrs is the widest schema resolved by linear scan instead of a
// positions map — relations are created on every query execution, and a
// scan over a handful of names beats allocating a map.
const smallAttrs = 8

// New returns an empty relation with the given name and attributes.
// Attribute names must be unique. The internal maps (attribute
// positions, the distinct-tuple index) are created lazily, so tiny
// result relations — the per-query common case — stay allocation-light.
func New(name string, attrs ...string) *Relation {
	r := &Relation{
		name:  name,
		attrs: append([]string(nil), attrs...),
	}
	if len(attrs) > smallAttrs {
		r.pos = make(map[string]int, len(attrs))
		for i, a := range attrs {
			if _, dup := r.pos[a]; dup {
				panic(fmt.Sprintf("relation %s: duplicate attribute %q", name, a))
			}
			r.pos[a] = i
		}
		return r
	}
	for i, a := range attrs {
		for j := 0; j < i; j++ {
			if attrs[j] == a {
				panic(fmt.Sprintf("relation %s: duplicate attribute %q", name, a))
			}
		}
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Attrs returns the attribute list (callers must not mutate it).
func (r *Relation) Attrs() []string { return r.attrs }

// AttrIndex returns the column of attribute a, or -1 if absent.
func (r *Relation) AttrIndex(a string) int {
	if r.pos != nil {
		if i, ok := r.pos[a]; ok {
			return i
		}
		return -1
	}
	for i, x := range r.attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Insert adds one occurrence of t.
func (r *Relation) Insert(t Tuple) { r.InsertMult(t, 1) }

// InsertMult adds n occurrences of t. n must be positive. The tuple is
// copied; see InsertOwned for the transfer-of-ownership variant.
func (r *Relation) InsertMult(t Tuple, n int) { r.insert(t, n, false) }

// InsertOwned adds n occurrences of t, taking ownership of the tuple's
// backing array — the caller must not reuse or mutate it afterwards.
// The allocation-free sibling of InsertMult for producers that build a
// fresh tuple per row (the plan layer's projections).
func (r *Relation) InsertOwned(t Tuple, n int) { r.insert(t, n, true) }

// insert is the shared insertion path: the tuple's identity is its Hash,
// confirmed by Equal.
func (r *Relation) insert(t Tuple, n int, owned bool) {
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.name, len(t), len(r.attrs)))
	}
	if n <= 0 {
		panic("InsertMult: non-positive multiplicity")
	}
	r.insertHashed(t, t.Hash(), n, owned)
}

// insertHashed inserts t, whose hash is h. A duplicate of a delta row
// bumps its count in place; a duplicate of a live base row retires that
// slot and re-adds the summed count to the delta (the base is shared, its
// counts are frozen), which moves the tuple to the end of the iteration
// order.
func (r *Relation) insertHashed(t Tuple, h uint64, n int, owned bool) {
	r.mu.Lock()
	r.ownRowsLocked()
	i, at, ok := r.deltaFindLocked(t, h)
	if ok {
		// Atomic: unlocked readers may be reading this row's count from
		// an earlier view of the rows slice.
		atomic.AddInt64(&r.rows[i].mult, int64(n))
		r.mu.Unlock()
		return
	}
	stored, mult := t, int64(n)
	if slot, ok := r.baseSlotLocked(t, h); ok {
		r.dead = r.dead.with(len(r.base.rows), slot)
		stored = r.base.rows[slot].tup
		mult += int64(r.base.rows[slot].count())
	} else if !owned {
		stored = t.Clone()
	}
	r.appendLocked(stored, mult, h, at)
	r.mu.Unlock()
}

// Admit adds a copy of t with multiplicity 1 unless r holds a tuple Equal
// to it, and reports whether it did: t is hashed once and looked up once,
// and the caller may reuse it. It is how a fixpoint's total takes a
// derived tuple, which Since then hands on to the next round.
func (r *Relation) Admit(t Tuple) bool {
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.name, len(t), len(r.attrs)))
	}
	h := t.Hash()
	r.mu.Lock()
	defer r.mu.Unlock()
	_, at, ok := r.deltaFindLocked(t, h)
	if ok {
		return false
	}
	if _, ok := r.baseSlotLocked(t, h); ok {
		return false
	}
	r.ownRowsLocked()
	r.appendLocked(t.Clone(), 1, h, at)
	return true
}

// Reserve presizes an empty relation for n distinct tuples: its row array
// holds n rows before it grows, and its tuple index, built now rather
// than by the first lookup, holds n. It changes capacity only: the
// relation's content, iteration order and windows (Since) are those of a
// relation never reserved. It does nothing to a relation that holds a
// row, was cloned or is a window.
func (r *Relation) Reserve(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 1 || len(r.rows) > 0 || r.base != nil || r.window {
		return
	}
	r.rows = make([]row, 0, n)
	r.index = &hashIndex{cols: allCols(len(r.attrs))}
	r.index.Reserve(n)
}

// Mark returns the position Since cuts at: the number of rows r holds.
func (r *Relation) Mark() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

// Since returns a window onto the rows r gained since Mark returned mark:
// a relation over them, in order, that shares r's row array and stores
// none of them again. It builds its own indexes lazily, as any relation
// does. Rows r gains later are past its end and never show in it; a
// multiplicity bump of one of its rows in r does, as in a captured scan.
// A write into the window copies its rows first, so it never reaches r.
// Since is defined only on a relation that was never cloned, and only
// while nothing was removed from it since the mark.
func (r *Relation) Since(mark int) *Relation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.base != nil {
		panic(fmt.Sprintf("relation %s: Since on a cloned relation", r.name))
	}
	n := len(r.rows)
	return &Relation{name: r.name, attrs: r.attrs, pos: r.pos, window: true, segment: segment{rows: r.rows[mark:n:n]}}
}

// ownRowsLocked gives a window its own copy of its rows before anything
// writes into them or freezes them, so a window's writes never reach the
// relation it was cut from. Row slots do not move, so every index stays
// valid. The caller holds mu for writing.
func (r *Relation) ownRowsLocked() {
	if r.window {
		r.rows, r.window = slices.Clone(r.rows), false
	}
}

// appendLocked adds the new distinct delta row stored, whose hash is h
// and which deltaFindLocked left at at, and maintains every index built
// so far incrementally instead of dropping it. (Sorted indexes fall
// behind and are extended by the next RangeProbe.) The caller holds mu
// for writing.
func (r *Relation) appendLocked(stored Tuple, mult int64, h uint64, at Pos) {
	r.rows = append(r.rows, row{tup: stored, mult: mult})
	if r.index != nil {
		r.index.AddAt(h, at)
	}
	for _, ix := range r.hashIdx {
		ix.Add(stored.HashAt(ix.cols))
	}
	for _, nb := range r.nums {
		nb.add(r.rows, stored)
	}
}

// slot finds the row of s holding t, whose hash is h, through the tuple
// index, or by comparing the one row of an unindexed delta. The caller
// holds the lock of s and has built the index if s has more rows, or s is
// a base segment.
func (s *segment) slot(t Tuple, h uint64) (int, bool) {
	if s.index == nil {
		return 0, len(s.rows) == 1 && s.rows[0].tup.Equal(t)
	}
	return s.index.find(s.rows, t, h)
}

// indexDue reports whether a lookup in the delta must first build its
// tuple index. The caller holds mu.
func (r *Relation) indexDue() bool { return r.index == nil && len(r.rows) > 1 }

// deltaSlotLocked is slot in the delta, building its tuple index if the
// lookup needs it. The caller holds mu for writing.
func (r *Relation) deltaSlotLocked(t Tuple, h uint64) (int, bool) {
	if r.indexDue() {
		r.tupleIndexLocked()
	}
	return r.segment.slot(t, h)
}

// deltaFindLocked is deltaSlotLocked for a writer that adds t to the
// delta if it is not there: on a miss it also returns where the tuple
// index, if the delta has one, left h, for appendLocked to add at with no
// second probe. The caller holds mu for writing.
func (r *Relation) deltaFindLocked(t Tuple, h uint64) (int, Pos, bool) {
	if r.indexDue() {
		r.tupleIndexLocked()
	}
	if r.index == nil {
		i, ok := r.segment.slot(t, h)
		return i, Pos{}, ok
	}
	ch, at := r.index.Find(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if r.rows[s].tup.Equal(t) {
			return s, at, true
		}
	}
	return 0, at, false
}

// tupleIndexLocked returns the delta's tuple index, building it if it is
// not built. The caller holds mu for writing.
func (r *Relation) tupleIndexLocked() *hashIndex {
	if r.index == nil {
		r.index = buildHashIndex(r.rows, allCols(len(r.attrs)))
	}
	return r.index
}

// baseSlotLocked finds the live base row holding t, whose hash is h. The
// caller holds mu.
func (r *Relation) baseSlotLocked(t Tuple, h uint64) (int, bool) {
	if r.base == nil {
		return 0, false
	}
	slot, ok := r.base.slot(t, h)
	return slot, ok && !r.dead.has(slot)
}

// RemoveKeys deletes every stored tuple Equal to one of tuples, returning
// the number of row occurrences removed (counting multiplicity); a tuple
// listed twice is removed once. Base rows are retired in a fresh dead set,
// O(tuples); if any delta row goes, the surviving delta rows move to a
// fresh array, the delta's tuple index is rebuilt and its other cached
// indexes are dropped, O(delta). Neither writes into an array or bitmap a
// view captured earlier can reach, so a reader mid-iteration — a cursor
// opened earlier in the same transaction — keeps streaming the rows that
// existed when it started.
func (r *Relation) RemoveKeys(tuples []Tuple) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var retire []int
	var drop []bool // drop[i] marks delta slot i for removal
	for _, t := range tuples {
		if len(t) != len(r.attrs) {
			continue
		}
		h := t.Hash()
		if slot, ok := r.baseSlotLocked(t, h); ok {
			retire = append(retire, slot)
		}
		if i, ok := r.deltaSlotLocked(t, h); ok {
			if drop == nil {
				drop = make([]bool, len(r.rows))
			}
			drop[i] = true
		}
	}
	removed := 0
	if len(retire) > 0 {
		slices.Sort(retire)
		retire = slices.Compact(retire)
		for _, slot := range retire {
			removed += r.base.rows[slot].count()
		}
		r.dead = r.dead.with(len(r.base.rows), retire...)
	}
	if drop != nil {
		removed += r.removeDeltaLocked(drop)
	}
	return removed
}

// removeDeltaLocked is RemoveKeys' delta half: it drops the delta rows
// drop marks and returns how many occurrences they held. The surviving
// rows' indexes are built again by the lookups that need them.
func (r *Relation) removeDeltaLocked(drop []bool) int {
	removed := 0
	kept := make([]row, 0, len(r.rows))
	for i := range r.rows {
		if drop[i] {
			removed += r.rows[i].count()
			continue
		}
		kept = append(kept, r.rows[i])
	}
	r.rows, r.index, r.hashIdx, r.ordIdx, r.nums = kept, nil, nil, nil, nil
	return removed
}

// Add is a convenience builder: it converts Go literals (int, int64,
// float64, string, bool, nil, value.Value) into values and inserts the
// tuple, returning r for chaining.
func (r *Relation) Add(vals ...any) *Relation {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Lift(v)
	}
	r.Insert(t)
	return r
}

// Lift converts a Go literal into a value.Value. nil becomes NULL. It
// panics on unsupported types — for internal literals only; code lifting
// client-influenced values (engine bind arguments, server frame decoding)
// must use LiftErr so a hostile input becomes an error, not a crash.
func Lift(v any) value.Value {
	lv, err := LiftErr(v)
	if err != nil {
		panic(fmt.Sprintf("Lift: %v", err))
	}
	return lv
}

// LiftErr converts a Go literal into a value.Value, returning an error on
// unsupported types — the API-boundary sibling of Lift.
func LiftErr(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null(), nil
	case value.Value:
		return x, nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	}
	return value.Value{}, fmt.Errorf("unsupported literal type %T", v)
}

// Mult returns the multiplicity of t (0 if absent).
func (r *Relation) Mult(t Tuple) int {
	if len(t) != len(r.attrs) {
		return 0
	}
	return r.multHashed(t, t.Hash())
}

// multHashed is Mult for t, whose hash is h. The first lookup in a delta
// that needs its tuple index builds it, under the write lock, as
// probeHashed builds its indexes: checked again under that lock, since
// another reader may have built it in between.
func (r *Relation) multHashed(t Tuple, h uint64) int {
	r.mu.RLock()
	if !r.indexDue() {
		n := r.multLocked(t, h)
		r.mu.RUnlock()
		return n
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.indexDue() {
		r.tupleIndexLocked()
	}
	return r.multLocked(t, h)
}

// multLocked is multHashed once the delta's tuple index is not due. The
// caller holds mu.
func (r *Relation) multLocked(t Tuple, h uint64) int {
	if i, ok := r.segment.slot(t, h); ok {
		return r.rows[i].count()
	}
	if slot, ok := r.baseSlotLocked(t, h); ok {
		return r.base.rows[slot].count()
	}
	return 0
}

// Contains reports whether t occurs at least once.
func (r *Relation) Contains(t Tuple) bool { return r.Mult(t) > 0 }

// Distinct returns the number of distinct tuples.
func (r *Relation) Distinct() int { return r.view().distinct() }

// Card returns the total number of tuples counting multiplicity.
func (r *Relation) Card() int {
	n := 0
	r.Each(func(_ Tuple, m int) { n += m })
	return n
}

// Each calls f once per distinct tuple with its multiplicity, in iteration
// order. f must not retain the tuple beyond the call unless it clones.
func (r *Relation) Each(f func(Tuple, int)) { r.view().each(f) }

// EachWhile calls f per distinct tuple with its multiplicity, in iteration
// order, stopping early when f returns false.
func (r *Relation) EachWhile(f func(Tuple, int) bool) { r.view().eachWhile(f) }

// sigBuf holds a signature built on the stack: a map lookup keyed by
// string(sig) converts without allocating, so only building an index
// pays for the signature string.
type sigBuf [32]byte

// appendSig appends the column-set signature hash indexes are cached by.
func appendSig(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = strconv.AppendInt(dst, int64(c), 10)
		dst = append(dst, ',')
	}
	return dst
}

// hashIndexForLocked returns the hash index on the column set cols, whose
// signature is sig, building it on first use; in a delta InsertMult
// maintains it incrementally afterwards. The caller must hold the write
// lock.
func (s *segment) hashIndexForLocked(sig []byte, cols []int) *hashIndex {
	if ix, ok := s.hashIdx[string(sig)]; ok {
		return ix
	}
	ix := buildHashIndex(s.rows, slices.Clone(cols))
	if s.hashIdx == nil {
		s.hashIdx = make(map[string]*hashIndex)
	}
	s.hashIdx[string(sig)] = ix
	return ix
}

// hashIndexFor is hashIndexForLocked for a frozen segment, whose lock
// guards nothing but the index caches. A nil sig names the tuple index.
func (s *segment) hashIndexFor(sig []byte, cols []int) *hashIndex {
	if sig == nil {
		return s.index
	}
	s.mu.RLock()
	ix, ok := s.hashIdx[string(sig)]
	s.mu.RUnlock()
	if ok {
		return ix
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hashIndexForLocked(sig, cols)
}

// isAllCols reports whether cols lists all arity columns in order: a
// probe the tuple index answers.
func isAllCols(cols []int, arity int) bool {
	if len(cols) != arity {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// sigOf returns the signature of r's index on cols, built in buf, or nil
// when cols are all columns in order: the tuple index answers those.
func (r *Relation) sigOf(buf *sigBuf, cols []int) []byte {
	if isAllCols(cols, len(r.attrs)) {
		return nil
	}
	return appendSig(buf[:0], cols)
}

// deltaIndexLocked returns the delta's index on cols, whose signature is
// sig (see sigOf), or nil while it is not built. The caller holds mu.
func (r *Relation) deltaIndexLocked(sig []byte) *hashIndex {
	if sig == nil {
		return r.index
	}
	return r.hashIdx[string(sig)]
}

// buildDeltaIndexLocked is deltaIndexLocked, building the index if it is
// not built. The caller holds mu for writing.
func (r *Relation) buildDeltaIndexLocked(sig []byte, cols []int) *hashIndex {
	if sig == nil {
		return r.tupleIndexLocked()
	}
	return r.hashIndexForLocked(sig, cols)
}

// Probe calls f for each distinct tuple whose values at cols are Equal to
// vals (so 2 and 2.0 match), with its multiplicity, in iteration order; f
// returning false stops the probe. It walks the chain of vals' hash in a
// hash index on cols — the tuple index when cols are all columns in order,
// else a lazy per-column-set index — and confirms each row with Equal. An
// index survives multiplicity bumps and is maintained incrementally on
// inserts of new distinct tuples, so a probe after an insert sees the new
// tuple without a rebuild. The chain is captured under the lock and
// walked without it, so f may insert into r. A relation with a base
// probes the base's own index (built once, shared by every version) past
// the dead set, then the delta's.
//
// Equal agrees with value.Eq for every non-NULL probe value.
func (r *Relation) Probe(cols []int, vals []value.Value, f func(Tuple, int) bool) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("Probe: %d columns, %d values", len(cols), len(vals)))
	}
	if len(cols) == 0 {
		r.EachWhile(f)
		return
	}
	r.probeHashed(cols, vals, Tuple(vals).Hash(), f)
}

// probeHashed is Probe for the values vals, whose hash is h.
func (r *Relation) probeHashed(cols []int, vals Tuple, h uint64, f func(Tuple, int) bool) {
	var buf sigBuf
	sig := r.sigOf(&buf, cols)
	// Fast path: the delta's index already exists (or the delta is empty
	// and needs none) — capture the chain and the view under the read
	// lock. Slow path: build the index under the write lock
	// (double-checked; another goroutine may have built it in between).
	// Both capture view and chain under the same lock acquisition, so
	// every slot of the chain is covered by the view's rows header.
	r.mu.RLock()
	v, ix := r.viewLocked(), r.deltaIndexLocked(sig)
	delta := Chain{first: -1}
	if ix != nil {
		delta = ix.Chain(h)
	}
	r.mu.RUnlock()
	if ix == nil && len(v.rows) > 0 {
		r.mu.Lock()
		v = r.viewLocked()
		delta = r.buildDeltaIndexLocked(sig, cols).Chain(h)
		r.mu.Unlock()
	}
	if v.base != nil && !walk(v.base.rows, v.dead, v.base.hashIndexFor(sig, cols).Chain(h), cols, vals, f) {
		return
	}
	walk(v.rows, nil, delta, cols, vals, f)
}

// Prober is r's hash index on one column set, held at r as it was when
// Prober was called: a probe finds what Probe would have found then, the
// rows a scan begun at that moment streams, whatever is inserted or
// removed since (multiplicity bumps of delta rows show through, as they
// do in a scan). It probes r's own indexes, which every Probe and Prober
// shares, so a join that probes a stored relation reads one version of
// it without building a table.
type Prober struct {
	r    *Relation
	v    view
	cols []int
	// base and delta are v's indexes on cols: nil without a base, and
	// without delta rows. delta may be r's live index, which grows under
	// r's lock; a chain of it is read under that lock and walked only up
	// to the rows v holds.
	base, delta *hashIndex
}

// Prober returns the Prober of r on cols, which it keeps: the caller must
// not modify cols.
func (r *Relation) Prober(cols []int) *Prober {
	var buf sigBuf
	sig := r.sigOf(&buf, cols)
	r.mu.RLock()
	p := &Prober{r: r, cols: cols, v: r.viewLocked(), delta: r.deltaIndexLocked(sig)}
	r.mu.RUnlock()
	if p.delta == nil && len(p.v.rows) > 0 {
		r.mu.Lock()
		p.v, p.delta = r.viewLocked(), r.buildDeltaIndexLocked(sig, cols)
		r.mu.Unlock()
	}
	if p.v.base != nil {
		p.base = p.v.base.hashIndexFor(sig, cols)
	}
	return p
}

// Probe calls f for each distinct tuple of the held version whose values
// at the Prober's columns are Equal to vals, with its multiplicity, in
// iteration order; f returning false stops the probe.
func (p *Prober) Probe(vals []value.Value, f func(Tuple, int) bool) {
	h := Tuple(vals).Hash()
	if p.base != nil && !walk(p.v.base.rows, p.v.dead, p.base.Chain(h), p.cols, vals, f) {
		return
	}
	if p.delta == nil {
		return
	}
	p.r.mu.RLock()
	ch := p.delta.Chain(h)
	p.r.mu.RUnlock()
	walk(p.v.rows, nil, ch, p.cols, vals, f)
}

// walk calls f for each row of the chain ch that dead does not retire and
// whose values at cols are Equal to vals, reporting false once f stops it.
// A chain lists its slots in the order they were added, so a slot past
// rows, added after rows was captured, ends the walk.
func walk(rows []row, dead *deadSet, ch Chain, cols []int, vals Tuple, f func(Tuple, int) bool) bool {
	for s := ch.First(); s >= 0 && s < len(rows); s = ch.Next(s) {
		if rw := &rows[s]; !dead.has(s) && rw.tup.EqualAt(cols, vals) && !f(rw.tup, rw.count()) {
			return false
		}
	}
	return true
}

// Tuples returns the distinct tuples in iteration order.
func (r *Relation) Tuples() []Tuple {
	v := r.view()
	out := make([]Tuple, 0, v.distinct())
	v.each(func(t Tuple, _ int) { out = append(out, t) })
	return out
}

// Dedup returns a copy with every multiplicity collapsed to 1 (the
// set-semantics reading of the instance).
func (r *Relation) Dedup() *Relation {
	out := New(r.name, r.attrs...)
	r.Each(func(t Tuple, _ int) { out.InsertMult(t, 1) })
	return out
}

// UnionAll adds every occurrence of o into r (bag union). Arity must match;
// attribute names are taken from r.
func (r *Relation) UnionAll(o *Relation) {
	if o.Arity() != r.Arity() {
		panic(fmt.Sprintf("UnionAll: arity mismatch %d vs %d", r.Arity(), o.Arity()))
	}
	o.Each(func(t Tuple, m int) { r.InsertMult(t, m) })
}

// Rename returns a copy with a new name and (optionally) new attribute
// names; pass nil attrs to keep them.
func (r *Relation) Rename(name string, attrs []string) *Relation {
	if attrs == nil {
		attrs = r.attrs
	}
	out := New(name, attrs...)
	r.Each(func(t Tuple, m int) { out.InsertMult(t, m) })
	return out
}

// Project returns the projection onto the named attributes, keeping bag
// multiplicities (no dedup; dedup is a γ in the calculus, per Section 2.7).
func (r *Relation) Project(attrs ...string) *Relation {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c := r.AttrIndex(a)
		if c < 0 {
			panic(fmt.Sprintf("Project: relation %s has no attribute %q", r.name, a))
		}
		cols[i] = c
	}
	out := New(r.name, attrs...)
	t := make(Tuple, len(cols))
	r.Each(func(src Tuple, m int) {
		for j, c := range cols {
			t[j] = src[c]
		}
		out.InsertMult(t, m)
	})
	return out
}

// sortedRows returns (tuple, mult) pairs sorted by key, for canonical
// comparison and printing. Multiplicities are loaded once, so the result
// is a consistent-enough snapshot for display.
func (r *Relation) sortedRows() []row {
	v := r.view()
	rs := make([]row, 0, v.distinct())
	v.each(func(t Tuple, m int) { rs = append(rs, row{tup: t, mult: int64(m)}) })
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i].tup, rs[j].tup
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].Less(b[k]) {
				return true
			}
			if b[k].Less(a[k]) {
				return false
			}
		}
		return len(a) < len(b)
	})
	return rs
}

// EqualSet reports whether r and o contain the same distinct tuples,
// ignoring multiplicities, names, and attribute names (positional content
// comparison, the standard notion for query-result equivalence tests).
func (r *Relation) EqualSet(o *Relation) bool {
	return r.equal(o, func(t Tuple, _ int) bool { return o.Contains(t) })
}

// EqualBag reports whether r and o contain the same tuples with the same
// multiplicities.
func (r *Relation) EqualBag(o *Relation) bool {
	return r.equal(o, func(t Tuple, m int) bool { return o.Mult(t) == m })
}

// equal reports whether r and o have the same arity and distinct count and
// same holds for every tuple of r.
func (r *Relation) equal(o *Relation, same func(Tuple, int) bool) bool {
	if r.Arity() != o.Arity() {
		return false
	}
	v := r.view()
	if v.distinct() != o.Distinct() {
		return false
	}
	eq := true
	v.eachWhile(func(t Tuple, m int) bool {
		eq = same(t, m)
		return eq
	})
	return eq
}

// String renders the relation as an aligned table with multiplicities
// shown when any exceeds 1, sorted canonically — the format used by the
// experiment harness and goldens.
func (r *Relation) String() string {
	sorted := r.sortedRows()
	showMult := false
	for i := range sorted {
		if sorted[i].mult != 1 {
			showMult = true
			break
		}
	}
	header := make([]string, len(r.attrs))
	copy(header, r.attrs)
	if showMult {
		header = append(header, "#")
	}
	rows := [][]string{header}
	for _, rw := range sorted {
		cells := make([]string, 0, len(rw.tup)+1)
		for _, v := range rw.tup {
			cells = append(cells, v.String())
		}
		if showMult {
			cells = append(cells, fmt.Sprintf("%d", rw.mult))
		}
		rows = append(rows, cells)
	}
	width := make([]int, len(header))
	for _, cs := range rows {
		for i, c := range cs {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.name)
	for ri, cs := range rows {
		b.WriteString("  ")
		for i, c := range cs {
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
		if ri == 0 {
			b.WriteString("  ")
			for _, w := range width {
				b.WriteString(strings.Repeat("-", w) + "  ")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
