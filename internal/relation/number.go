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
type Numbering struct {
	v view
	// base numbers v's base rows, nil without a base.
	base *numbering
	// of numbers v's delta rows in the delta's own numbering, and dmap, when
	// it is not nil, maps that numbering onto the view's.
	of, dmap []int32
	groups   int
}

// Numbering returns the Numbering of r on cols. It numbers r's rows the
// first time it is asked for a column set — base and delta each keep
// theirs — and then reads the numbers as they are kept; a relation with
// a base maps the delta's groups onto the base's with one lookup per
// delta group.
func (r *Relation) Numbering(cols []int) *Numbering {
	var buf sigBuf
	sig := appendSig(buf[:0], cols)
	// The delta's numbers and first slots are captured with the view, under
	// one lock: both are only ever appended to, and hold exactly the
	// view's rows.
	nb := &Numbering{}
	var firsts []int32
	r.mu.RLock()
	nb.v = r.viewLocked()
	dn := r.nums[string(sig)]
	if dn != nil {
		nb.of, firsts = dn.of, dn.firsts
	}
	r.mu.RUnlock()
	if dn == nil && len(nb.v.rows) > 0 {
		r.mu.Lock()
		dn = r.numberingForLocked(sig, cols)
		nb.v, nb.of, firsts = r.viewLocked(), dn.of, dn.firsts
		r.mu.Unlock()
	}
	if nb.v.base == nil {
		nb.groups = len(firsts)
		return nb
	}
	nb.base = nb.v.base.numberingFor(sig, cols)
	nb.groups = len(nb.base.firsts)
	if len(firsts) == 0 {
		return nb
	}
	nb.dmap = make([]int32, len(firsts))
	for d, s := range firsts {
		t := nb.v.rows[s].tup
		g := nb.base.group(nb.v.base.rows, t, t.HashAt(cols))
		if g < 0 {
			g = nb.groups
			nb.groups++
		}
		nb.dmap[d] = int32(g)
	}
	return nb
}

// Groups returns the bound on the held version's group numbers.
func (nb *Numbering) Groups() int { return nb.groups }

// EachWhile calls f for each distinct tuple of the held version, in
// iteration order, with its multiplicity and its group's number, stopping
// when f returns false.
func (nb *Numbering) EachWhile(f func(t Tuple, m, g int) bool) {
	v := nb.v
	if v.base != nil {
		of := nb.base.of
		for i := range v.base.rows {
			if rw := &v.base.rows[i]; !v.dead.has(i) && !f(rw.tup, rw.count(), int(of[i])) {
				return
			}
		}
	}
	for i := range v.rows {
		g := nb.of[i]
		if nb.dmap != nil {
			g = nb.dmap[g]
		}
		if !f(v.rows[i].tup, v.rows[i].count(), int(g)) {
			return
		}
	}
}
