package relation

import (
	"maps"
	"slices"
)

// Chains indexes slots 0, 1, 2, … by a 64-bit hash (value.Tuple.Hash or
// HashAt): the slots added under one hash are chained through next in the
// order they were added, and spans maps the hash to the two ends of its
// chain. Unequal keys may share a hash, so whoever walks a chain confirms
// each slot with Equal — a collision costs one compare, never a wrong
// match. The zero Chains is empty and ready to use.
type Chains struct {
	spans map[uint64]span
	// next[s] is the slot after s in its chain, and is meaningful only
	// while s is not the chain's last slot. It has one element per slot.
	next []int32
}

type span struct{ first, last int32 }

// Add chains the next slot — the number of slots added so far — under h.
// The only element of next it writes is the one of the chain's current
// last slot, which no chain captured earlier reads.
func (c *Chains) Add(h uint64) {
	slot := int32(len(c.next))
	c.next = append(c.next, 0)
	if c.spans == nil {
		c.spans = make(map[uint64]span)
	}
	sp, ok := c.spans[h]
	if ok {
		c.next[sp.last] = slot
		sp.last = slot
	} else {
		sp = span{slot, slot}
	}
	c.spans[h] = sp
}

// Reserve presizes empty Chains for n slots: the spans map for n hashes
// and next for n slots. It does nothing to Chains that hold a slot.
func (c *Chains) Reserve(n int) {
	if len(c.next) > 0 {
		return
	}
	c.spans, c.next = make(map[uint64]span, n), make([]int32, 0, n)
}

// Chain captures the chain of h. Slots added later are beyond its last
// slot and so not part of it, which lets a reader walk a captured chain
// while a writer adds to the Chains.
func (c *Chains) Chain(h uint64) Chain {
	sp, ok := c.spans[h]
	if !ok {
		return Chain{span: span{first: -1}}
	}
	return Chain{span: sp, next: c.next}
}

// clone returns a copy the caller may add to.
func (c *Chains) clone() Chains {
	return Chains{spans: maps.Clone(c.spans), next: slices.Clone(c.next)}
}

// Chain is the run of slots under one hash as captured at one moment. It
// is walked with for s := c.First(); s >= 0; s = c.Next(s).
type Chain struct {
	span
	next []int32
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
// resident memory: one map entry of 16 bytes (the hash and its span) per
// distinct key and four bytes per row.
type hashIndex struct {
	cols []int
	Chains
}

// buildHashIndex indexes rows on cols.
func buildHashIndex(rows []row, cols []int) *hashIndex {
	ix := &hashIndex{cols: cols}
	ix.Reserve(len(rows))
	for i := range rows {
		ix.Add(rows[i].tup.HashAt(cols))
	}
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
