package value

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// seed keys every Hash of this process. It is drawn once, at random,
// through hash/maphash, so hash values differ from process to process and
// a client cannot choose keys that collide. A string hashes through
// maphash itself; a payload word through one 64×64→128-bit multiply by
// two secret words derived from seed (wyhash's mixing step), which
// maphash's generic path takes several times longer to do.
var (
	seed         = maphash.MakeSeed()
	wordA, wordB = maphash.String(seed, "a"), maphash.String(seed, "b")
)

// Hash returns v's 64-bit hash under the process seed. Equal values hash
// alike: an integral float in [-2^63, 2^63) equals exactly one int and
// hashes as that int, and NaN is NULL. Unequal values may collide, so a
// lookup by Hash confirms with Equal. Hash allocates nothing.
func (v Value) Hash() uint64 {
	switch v.p {
	case kindPtr(KindInt):
		return hashWord(KindInt, v.n)
	case kindPtr(KindFloat):
		if f := v.f(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return hashWord(KindInt, uint64(int64(f)))
		}
		return hashWord(KindFloat, v.n)
	case nil:
		return hashWord(KindNull, 0)
	case kindPtr(KindBool):
		return hashWord(KindBool, v.n)
	}
	return maphash.String(seed, v.str()) + uint64(KindString)
}

// hashWord hashes a payload word; the kind keeps an int apart from the
// float, bool or NULL whose word has the same bits.
func hashWord(k Kind, n uint64) uint64 {
	hi, lo := bits.Mul64(n^wordA, wordB^uint64(k))
	return hi ^ lo
}

// Tuple is one row: values aligned with some attribute list.
type Tuple []Value

// Clone returns a copy that the caller may retain.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Hash returns the hash of the whole tuple: HashAt over every column, in
// order. Tuples whose values are Equal column by column hash alike.
func (t Tuple) Hash() uint64 {
	var h uint64
	for _, v := range t {
		h = mixHash(h, v)
	}
	return h
}

// HashAt returns the hash of t's values at cols, which is the Hash of the
// tuple of those values — what a lookup by the values alone computes.
func (t Tuple) HashAt(cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = mixHash(h, t[c])
	}
	return h
}

// mixHash folds one more value into a tuple hash. The multiplier is odd,
// so for a given prefix distinct value hashes stay distinct, and the
// position of a value changes its contribution.
func mixHash(h uint64, v Value) uint64 {
	return (h ^ v.Hash()) * 0x9e3779b97f4a7c15
}

// Equal reports whether t and o have the same width and Equal values
// column by column: one tuple, as far as a relation is concerned.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EqualAt reports whether t's values at cols are Equal to vals, column by
// column — the confirmation every lookup by HashAt makes.
func (t Tuple) EqualAt(cols []int, vals Tuple) bool {
	for i, c := range cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}
