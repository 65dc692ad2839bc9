// version.go is what lets versions of a relation share storage: Clone
// freezes what the source holds into a base segment both sides point at,
// and from then on a version is {base, dead set, delta} — the
// differential-file shape, at relation granularity. The sharing rule
// (docs/INVARIANTS.md §1): a base segment and a dead set are immutable
// from construction, so versions need no ownership protocol between them;
// whoever wants a change builds a new dead set or writes its own delta.
package relation

import (
	"maps"
	"math"
	"slices"
)

// deadSet retires slots of a base segment: an immutable bitmap over the
// segment's rows, in pages of deadPage slots so that a set with a few
// more slots shares every page it did not touch with the one it came
// from (a page nobody retired anything in stays nil). The nil set retires
// nothing; with returns a new set rather than writing into the receiver.
type deadSet struct {
	pages []*[deadPage / 64]uint64
	n     int // slots retired
}

const deadPage = 4096

func (d *deadSet) has(slot int) bool {
	if d == nil {
		return false
	}
	u := uint(slot)
	p := d.pages[u/deadPage]
	return p != nil && p[u%deadPage/64]&(1<<(u%64)) != 0
}

func (d *deadSet) count() int {
	if d == nil {
		return 0
	}
	return d.n
}

// with returns d plus the given slots of a segment of size rows, none of
// which d already retires: O(size/deadPage) for the page table plus one
// page per page touched.
func (d *deadSet) with(size int, slots ...int) *deadSet {
	out := &deadSet{pages: make([]*[deadPage / 64]uint64, (size+deadPage-1)/deadPage), n: d.count() + len(slots)}
	if d != nil {
		copy(out.pages, d.pages)
	}
	for _, slot := range slots {
		u := uint(slot)
		i := u / deadPage
		p := out.pages[i]
		if p == nil || d != nil && p == d.pages[i] {
			// Absent, or still d's: out gets its own before it is written.
			p = new([deadPage / 64]uint64)
			if out.pages[i] != nil {
				*p = *out.pages[i]
			}
			out.pages[i] = p
		}
		p[u%deadPage/64] |= 1 << (u % 64)
	}
	return out
}

// view is one captured reading of a relation: the rows of base that dead
// does not retire, then rows. Everything it reaches is immutable except
// the atomic multiplicity counts of rows, so the holder may iterate
// without the lock — which keeps callbacks free to re-enter the relation —
// and no later mutation, hand-off or fold of the relation shows through
// it.
type view struct {
	base *segment
	dead *deadSet
	rows []row
}

// viewLocked captures the current view. The caller holds mu.
func (r *Relation) viewLocked() view { return view{base: r.base, dead: r.dead, rows: r.rows} }

// view captures the current view under the read lock.
func (r *Relation) view() view {
	r.mu.RLock()
	v := r.viewLocked()
	r.mu.RUnlock()
	return v
}

// distinct is the number of distinct tuples the view holds.
func (v view) distinct() int {
	if v.base == nil {
		return len(v.rows)
	}
	return len(v.base.rows) - v.dead.count() + len(v.rows)
}

// each calls f once per distinct tuple of the view with its multiplicity,
// in iteration order.
func (v view) each(f func(Tuple, int)) {
	v.eachWhile(func(t Tuple, m int) bool { f(t, m); return true })
}

// eachWhile is each, stopping early when f returns false.
func (v view) eachWhile(f func(Tuple, int) bool) {
	if v.base != nil {
		for i := range v.base.rows {
			if rw := &v.base.rows[i]; !v.dead.has(i) && !f(rw.tup, rw.count()) {
				return
			}
		}
	}
	for i := range v.rows {
		if !f(v.rows[i].tup, v.rows[i].count()) {
			return
		}
	}
}

// foldFactor sets the fold budget (see foldBudget). A commit on an n-row
// base copies a delta of, on average, half a budget of rows and, once per
// budget commits, folds and re-indexes n rows; with a fork-copy cost c per
// delta row and a fold-and-reindex cost f per base row the sum is least at
// a budget of √(2f/c)·√n. Measured at 4 000 and 100 000 rows (CHANGES.md,
// PR 17): c ≈ 150–230 ns and 124 B, f ≈ 340–650 ns and 130–180 B, which
// puts √(2f/c) at 2.0–2.5 by time and 1.5–1.7 by bytes.
const foldFactor = 2

// foldBudget is how many delta rows plus retired slots a version may
// carry on an n-row base before Clone folds them into a fresh one:
// foldFactor·√n, and for a base smaller than its own budget (n below
// foldFactor²) the budget of the smallest base that is not.
func foldBudget(n int) int {
	return foldFactor * max(foldFactor, int(math.Sqrt(float64(n))))
}

// Clone returns an independent copy: no later mutation of either relation
// shows in the other. It copies the delta only, and of the delta's
// indexes all but its group numberings, which the copy builds again if a
// γ asks for one (a delta is at most a fold budget of rows). A source
// that was never cloned first hands its arrays and indexes, as they are,
// to a new base segment both sides then share, in O(1); a source whose
// delta and dead set have outgrown the fold budget of its base is first
// folded into a fresh base, O(rows), which a budget's worth of clones
// then share the cost of. Either way the source is re-based under its
// lock — its representation changes, its content and iteration order do
// not, and a reader holding a view captured earlier keeps what it
// captured.
func (r *Relation) Clone() *Relation {
	out := &Relation{name: r.name, attrs: r.attrs, pos: r.pos}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base == nil {
		r.ownRowsLocked()
		r.rebaseLocked(r.handOffLocked())
	} else if len(r.rows)+r.dead.count() > foldBudget(len(r.base.rows)) {
		r.rebaseLocked(r.foldLocked())
	}
	out.base, out.dead = r.base, r.dead
	out.rows = slices.Clone(r.rows)
	if r.index != nil {
		out.index = r.index.clone()
	}
	out.ordIdx = maps.Clone(r.ordIdx)
	if len(r.hashIdx) > 0 {
		out.hashIdx = make(map[string]*hashIndex, len(r.hashIdx))
		for sig, ix := range r.hashIdx {
			out.hashIdx[sig] = ix.clone()
		}
	}
	return out
}

// rebaseLocked makes r an empty delta over base, which must hold exactly
// r's content in r's iteration order. The caller holds mu for writing.
func (r *Relation) rebaseLocked(base *segment) {
	r.base, r.dead = base, nil
	r.rows, r.index, r.hashIdx, r.ordIdx, r.nums = nil, nil, nil, nil, nil
}

// handOffLocked freezes the delta of a relation without a base into a
// segment: the arrays and every index and numbering built so far change
// hands as they are. The caller holds mu for writing and re-bases r at
// once, so nothing writes through the old fields again.
func (r *Relation) handOffLocked() *segment {
	return &segment{rows: r.rows, index: r.tupleIndexLocked(), hashIdx: r.hashIdx, ordIdx: r.ordIdx, nums: r.nums}
}

// foldLocked builds the segment holding r's live base rows followed by
// its delta rows, and its tuple index. Tuples are shared with the old
// base; the other indexes and the numberings are not carried over and
// rebuild lazily. The caller holds mu.
func (r *Relation) foldLocked() *segment {
	old, live := r.base, len(r.base.rows)-r.dead.count()
	rows := make([]row, 0, live+len(r.rows))
	for i := range old.rows {
		if !r.dead.has(i) {
			rows = append(rows, old.rows[i])
		}
	}
	rows = append(rows, r.rows...)
	return &segment{rows: rows, index: buildHashIndex(rows, allCols(len(r.attrs)))}
}
