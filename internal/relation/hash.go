package relation

import (
	"math/bits"
	"slices"
)

// Chains indexes slots 0, 1, 2, … by a 64-bit hash (value.Tuple.Hash or
// HashAt): the slots added under one hash are chained through next in the
// order they were added. Unequal keys may share a hash, so whoever walks
// a chain confirms each slot with Equal — a collision costs one compare,
// never a wrong match. The zero Chains is empty and ready to use.
//
// It is the one hash table of the serving path. hashes and lasts hold
// each distinct hash and its chain's last slot; index holds 1 + a hash's
// number there, at or after the entry its top bits name (open addressing,
// linear probing), and is a power of two at most three quarters full.
type Chains struct {
	index  []int32
	shift  uint // 64 - log2(len(index))
	hashes []uint64
	lasts  []int32
	// next[s] is the slot after s in its chain, or for the chain's last
	// slot its first: a chain is a ring, so a head needs no first slot.
	next []int32
}

const minIndex = 8 // the least length of an index and of what grow makes

// Add chains the next slot — the number of slots added so far — under h.
// The only element of next it rewrites is the one of the chain's current
// last slot, which no chain captured earlier reads.
func (c *Chains) Add(h uint64) {
	c.fit(len(c.hashes) + 1)
	i, j := c.find(h)
	c.AddAt(h, Pos{i, j})
}

// Pos is where Find left a hash: its entry in the index, and its head or
// -1 if it has none.
type Pos struct{ i, j int }

// Find captures the chain of h, as Chain does, and returns where it left
// h, so that a caller who finds no match in the chain adds under h with
// AddAt without probing the index again: one probe for a find-or-add. It
// first makes the index room for one more head, which may rebuild it, as
// Add does: so no other goroutine may read the Chains meanwhile, unless
// under a lock the caller holds for writing (a relation's tuple index).
func (c *Chains) Find(h uint64) (Chain, Pos) {
	c.fit(len(c.hashes) + 1)
	i, j := c.find(h)
	if j < 0 {
		return Chain{first: -1}, Pos{i, j}
	}
	last := c.lasts[j]
	return Chain{first: c.next[last], last: last, next: c.next}, Pos{i, j}
}

// AddAt is Add for h, which Find left at p, with nothing added since.
func (c *Chains) AddAt(h uint64, p Pos) {
	slot := int32(len(c.next))
	if p.j >= 0 {
		last := c.lasts[p.j]
		c.next = append(grow(c.next), c.next[last])
		c.next[last], c.lasts[p.j] = slot, slot
		return
	}
	c.next = append(grow(c.next), slot)
	c.hashes, c.lasts = append(grow(c.hashes), h), append(grow(c.lasts), slot)
	c.index[p.i] = int32(len(c.hashes))
}

// grow returns s with room for one more element: doubled if it is full,
// where append would grow a large slice by about a quarter and so copy it
// more often.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	g := make([]T, len(s), max(minIndex, 2*len(s)))
	copy(g, s)
	return g
}

// fit rebuilds index, if n heads would fill more than three quarters of
// it, at the least power of two they fill no more of.
func (c *Chains) fit(n int) {
	if 4*n <= 3*len(c.index) {
		return
	}
	size := minIndex
	for 4*n > 3*size {
		size *= 2
	}
	c.index, c.shift = make([]int32, size), uint(64-bits.TrailingZeros(uint(size)))
	for j, h := range c.hashes {
		i, _ := c.find(h)
		c.index[i] = int32(j + 1)
	}
}

// find returns where h is or would be in index, and its head, or -1 if it
// has none. The index must have a free entry.
func (c *Chains) find(h uint64) (i, j int) {
	mask := len(c.index) - 1
	for i = int(h >> c.shift); ; i = (i + 1) & mask {
		e := c.index[i]
		if e == 0 {
			return i, -1
		}
		if c.hashes[e-1] == h {
			return i, int(e - 1)
		}
	}
}

// Reserve presizes empty Chains for n slots under as many hashes. It does
// nothing to Chains that hold a slot.
func (c *Chains) Reserve(n int) {
	if n <= 0 || len(c.next) > 0 {
		return
	}
	c.hashes, c.lasts, c.next = make([]uint64, 0, n), make([]int32, 0, n), make([]int32, 0, n)
	c.fit(n)
}

// trim gives back what Reserve set aside for heads the slots did not
// need: when they share fewer than a quarter as many hashes as were
// reserved, the heads move to arrays of their own size and the index is
// refitted to them.
func (c *Chains) trim() {
	n := len(c.hashes)
	if 4*n >= cap(c.hashes) {
		return
	}
	c.hashes, c.lasts, c.index = slices.Clone(c.hashes), slices.Clone(c.lasts), nil
	c.fit(n)
}

// Chain captures the chain of h. Slots added later are beyond its last
// slot and so not part of it, which lets a reader walk a captured chain
// while a writer adds to the Chains.
func (c *Chains) Chain(h uint64) Chain {
	if len(c.hashes) > 0 {
		if _, j := c.find(h); j >= 0 {
			last := c.lasts[j]
			return Chain{first: c.next[last], last: last, next: c.next}
		}
	}
	return Chain{first: -1}
}

// clone returns a copy the caller may add to.
func (c *Chains) clone() Chains {
	return Chains{slices.Clone(c.index), c.shift, slices.Clone(c.hashes), slices.Clone(c.lasts), slices.Clone(c.next)}
}

// Chain is the run of slots under one hash as captured at one moment. It
// is walked with for s := c.First(); s >= 0; s = c.Next(s).
type Chain struct {
	first, last int32
	next        []int32
}

// First returns the chain's first slot, negative when it is empty.
func (c Chain) First() int { return int(c.first) }

// Next returns the slot following s in the chain, negative at its end.
func (c Chain) Next(s int) int {
	if int32(s) == c.last {
		return -1
	}
	return int(c.next[s])
}

// hashIndex is one hash index of a segment: the rows' slots chained by
// the hash of their values at cols. The index over all columns is the
// segment's tuple index, which finds a stored tuple; the others serve
// Probe. An index stays with its segment across commits, so its size is
// resident memory: per distinct key a 12-byte head and 1⅓ to 2⅔ int32s
// of index, and four bytes per row. At 100 000 distinct keys that is 26.5
// bytes a key built presized and 31.5 grown an Add at a time
// (TestIndexBytesPerKey pins the two together). A built index whose rows
// share few keys keeps heads for those keys only, not one per row
// (buildHashIndex; TestLowCardinalityIndexBytes).
type hashIndex struct {
	cols []int
	Chains
}

// buildHashIndex indexes rows on cols. It reserves a head per row, and
// trims the heads to the distinct hashes once they are known, so an index
// on a column of few values holds little more than its four bytes a row.
func buildHashIndex(rows []row, cols []int) *hashIndex {
	ix := &hashIndex{cols: cols}
	ix.Reserve(len(rows))
	for i := range rows {
		ix.Add(rows[i].tup.HashAt(cols))
	}
	ix.trim()
	return ix
}

// clone returns a copy the caller may add to.
func (ix *hashIndex) clone() *hashIndex {
	return &hashIndex{cols: ix.cols, Chains: ix.Chains.clone()}
}

// find returns the slot of the row whose values at ix.cols equal vals,
// whose hash is h: the first such row of the chain, which for the tuple
// index is the only one.
func (ix *hashIndex) find(rows []row, vals Tuple, h uint64) (int, bool) {
	ch := ix.Chain(h)
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		if rows[s].tup.EqualAt(ix.cols, vals) {
			return s, true
		}
	}
	return 0, false
}

// identity's prefixes serve as the column lists of narrow tuple indexes,
// so building one allocates no column list.
var identity = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// allCols returns the column list 0, 1, …, n-1.
func allCols(n int) []int {
	if n <= len(identity) {
		return identity[:n:n]
	}
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
