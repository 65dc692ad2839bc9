package relation

// number.go numbers a relation's rows by their values on a column set, so
// that γ finds each row's group by reading a number instead of hashing
// the row and probing a table: grouping by reading an index.

// numbering numbers the rows of a segment by their values at cols: slots
// whose values there are Equal share a number, and numbers go to groups
// in the order of their first slots. It is kept as a segment's hash
// indexes are (docs/INVARIANTS.md §1): built lazily, a delta's numbers
// its new rows as they are appended, and a base segment's is immutable
// once built.
type numbering struct {
	cols   []int
	of     []int32 // of[s] is slot s's group
	firsts []int32 // firsts[g] is group g's first slot
	// groups chains the groups by the hash of their values at cols: slot g
	// of it is group g.
	groups Chains
}

// buildNumbering numbers rows on cols.
func buildNumbering(rows []row, cols []int) *numbering {
	nb := &numbering{cols: cols, of: make([]int32, 0, len(rows))}
	for i := range rows {
		nb.add(rows, rows[i].tup)
	}
	return nb
}

// add numbers the slot after the last one numbered, which holds t; rows
// holds every slot numbered before it.
func (nb *numbering) add(rows []row, t Tuple) {
	h := t.HashAt(nb.cols)
	ch, p := nb.groups.Find(h)
	for g := ch.First(); g >= 0; g = ch.Next(g) {
		if sameAt(rows[nb.firsts[g]].tup, t, nb.cols) {
			nb.of = append(nb.of, int32(g))
			return
		}
	}
	nb.groups.AddAt(h, p)
	nb.firsts = append(nb.firsts, int32(len(nb.of)))
	nb.of = append(nb.of, int32(len(nb.firsts)-1))
}

// group returns the number of the group whose values at cols are Equal to
// t's, whose hash there is h, or -1.
func (nb *numbering) group(rows []row, t Tuple, h uint64) int {
	ch := nb.groups.Chain(h)
	for g := ch.First(); g >= 0; g = ch.Next(g) {
		if sameAt(rows[nb.firsts[g]].tup, t, nb.cols) {
			return g
		}
	}
	return -1
}

// sameAt reports whether a and b are Equal at cols.
func sameAt(a, b Tuple, cols []int) bool {
	for _, c := range cols {
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// numberingForLocked returns the numbering on cols, whose signature is
// sig, building it on first use; in a delta appendLocked numbers every
// row added afterwards. The caller holds the write lock.
func (s *segment) numberingForLocked(sig []byte, cols []int) *numbering {
	if nb, ok := s.nums[string(sig)]; ok {
		return nb
	}
	nb := buildNumbering(s.rows, append([]int(nil), cols...))
	if s.nums == nil {
		s.nums = make(map[string]*numbering)
	}
	s.nums[string(sig)] = nb
	return nb
}

// numberingFor is numberingForLocked for a frozen segment, whose lock
// guards nothing but the lazy builds.
func (s *segment) numberingFor(sig []byte, cols []int) *numbering {
	s.mu.RLock()
	nb, ok := s.nums[string(sig)]
	s.mu.RUnlock()
	if ok {
		return nb
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numberingForLocked(sig, cols)
}

// Numbering is r's rows numbered by their values on one column set, held
// at r as it was when Numbering was called: the rows a scan begun at that
// moment streams, each with a group number that it shares with exactly
// the rows whose values on the columns are Equal to its own (so 2 and 2.0
// share one, and so do two NULLs). Numbers are below Groups; a number may
// have no row, the number of a group whose rows were all removed.
//
// The rows are two runs, read in place from the arrays the relation
// keeps: the base run and then the delta run, in iteration order (see
// Runs).
type Numbering struct {
	runs   [2]NumberedRun
	groups int
}

// NumberedRun is one run of a Numbering's slots, which it reads in place:
// slot s of it holds the tuple Tuple(s) unless Dead(s), and Nums and
// Mults read the slots' group numbers and multiplicities a stretch at a
// time. It holds what the relation's arrays held when the Numbering was
// taken (docs/INVARIANTS.md, "A numbering's runs are captured"), so a
// reader may walk it while the relation takes more rows.
type NumberedRun struct {
	rows []row
	of   []int32
	// dead retires base slots; the delta run has none.
	dead *deadSet
	// dmap, when it is not nil, maps the delta's own numbering onto the
	// Numbering's.
	dmap []int32
}

// Len returns the number of slots in the run, dead ones included.
func (r *NumberedRun) Len() int { return len(r.rows) }

// Dead reports whether slot s holds no row of the held version.
func (r *NumberedRun) Dead(s int) bool { return r.dead.has(s) }

// Tuple returns slot s's tuple, which the caller must not modify.
func (r *NumberedRun) Tuple(s int) Tuple { return r.rows[s].tup }

// Nums writes the group numbers of the slots from lo on into dst, one
// per element, and -1 for a dead slot.
func (r *NumberedRun) Nums(lo int, dst []int32) {
	of := r.of[lo : lo+len(dst)]
	if r.dmap == nil {
		copy(dst, of)
	} else {
		for k, g := range of {
			dst[k] = r.dmap[g]
		}
	}
	if r.dead != nil {
		for k := range dst {
			if r.dead.has(lo + k) {
				dst[k] = -1
			}
		}
	}
}

// Mults writes the multiplicities of the slots from lo on into dst, one
// per element.
func (r *NumberedRun) Mults(lo int, dst []int) {
	rows := r.rows[lo : lo+len(dst)]
	for k := range rows {
		dst[k] = rows[k].count()
	}
}

// Skip returns the least slot hi after lo such that lo ≤ s < hi holds n
// live slots, or Len if fewer are left, and how many live slots that is.
func (r *NumberedRun) Skip(lo, n int) (hi, live int) {
	if r.dead == nil {
		hi = lo + min(n, len(r.rows)-lo)
		return hi, hi - lo
	}
	for hi = lo; hi < len(r.rows) && live < n; hi++ {
		if !r.dead.has(hi) {
			live++
		}
	}
	return hi, live
}

// Numbering returns the Numbering of r on cols. It numbers r's rows the
// first time it is asked for a column set — base and delta each keep
// theirs — and then reads the numbers as they are kept; a relation with
// a base maps the delta's groups onto the base's with one lookup per
// delta group.
func (r *Relation) Numbering(cols []int) *Numbering {
	var buf sigBuf
	sig := appendSig(buf[:0], cols)
	// The delta's rows, numbers and first slots are captured under one
	// lock: all three are only ever appended to, and hold exactly the
	// view's rows.
	nb := &Numbering{}
	var firsts []int32
	r.mu.RLock()
	v := r.viewLocked()
	dn := r.nums[string(sig)]
	if dn != nil {
		nb.runs[1].of, firsts = dn.of, dn.firsts
	}
	r.mu.RUnlock()
	if dn == nil && len(v.rows) > 0 {
		r.mu.Lock()
		dn = r.numberingForLocked(sig, cols)
		v, nb.runs[1].of, firsts = r.viewLocked(), dn.of, dn.firsts
		r.mu.Unlock()
	}
	nb.runs[1].rows = v.rows
	if v.base == nil {
		nb.groups = len(firsts)
		return nb
	}
	base := v.base.numberingFor(sig, cols)
	nb.runs[0] = NumberedRun{rows: v.base.rows, of: base.of, dead: v.dead}
	nb.groups = len(base.firsts)
	if len(firsts) == 0 {
		return nb
	}
	dmap := make([]int32, len(firsts))
	for d, s := range firsts {
		t := v.rows[s].tup
		g := base.group(v.base.rows, t, t.HashAt(cols))
		if g < 0 {
			g = nb.groups
			nb.groups++
		}
		dmap[d] = int32(g)
	}
	nb.runs[1].dmap = dmap
	return nb
}

// Groups returns the bound on the held version's group numbers.
func (nb *Numbering) Groups() int { return nb.groups }

// Runs returns the held version's rows as two runs, base then delta,
// either of which may be empty: their live slots, in order, are the
// relation's iteration order.
func (nb *Numbering) Runs() [2]NumberedRun { return nb.runs }
