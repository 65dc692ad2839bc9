package value

import (
	"math"
	"strings"
	"testing"
)

// identityCorpus returns the values whose 16-byte representations put
// Equal's identical-words shortcut and Kind's reading of the pointer word
// to the test: strings sharing one backing array (one address with
// several lengths; one length at several addresses, equal and not),
// equal strings in separate allocations, the empty string beside NULL,
// ±0, the int/float pairs around ±2^53 and the int64 extremes, and both
// bools.
func identityCorpus() []Value {
	backing := strings.Repeat("ab", 4) // "abababab"
	vals := []Value{Null(), Str(""), Str(backing[:0]), Str(backing[3:3]), Str(strings.Clone(""))}
	for i := 0; i <= len(backing); i++ {
		vals = append(vals, Str(backing[:i]), Str(strings.Clone(backing[:i]))) // one address, every length; a copy at its own
		if i+2 <= len(backing) {
			vals = append(vals, Str(backing[1:1+i]), Str(backing[2:2+i])) // other bytes one along, the same two along
		}
	}
	for _, n := range []int64{1<<53 - 1, 1 << 53, 1<<53 + 1} {
		for _, i := range []int64{n, -n} {
			vals = append(vals, Int(i), Float(float64(i)))
		}
	}
	return append(vals,
		Float(0), Float(math.Copysign(0, -1)), Int(0),
		Int(math.MinInt64), Int(math.MaxInt64), Float(-(1 << 63)), Float(1<<63),
		Bool(false), Bool(true), Int(1))
}

// checkIdentity fails t unless v survives every way out of and back into
// a Value: its accessors rebuild an Equal value of the same Kind (a
// string's through a copy at a new address, a float's to the same bits),
// the accessors of the other kinds read zero, and the ordered encoding
// decodes to the same Kind, Key and payload.
func checkIdentity(t *testing.T, v Value) {
	t.Helper()
	var rebuilt Value
	switch v.Kind() {
	case KindNull:
		rebuilt = Null()
	case KindInt:
		rebuilt = Int(v.AsInt())
	case KindFloat:
		rebuilt = Float(v.AsFloat())
	case KindString:
		rebuilt = Str(strings.Clone(v.AsString()))
	case KindBool:
		rebuilt = Bool(v.AsBool())
	default:
		t.Fatalf("%v: Kind %v", v, v.Kind())
	}
	if !samePayload(v, rebuilt) || !v.Equal(rebuilt) || !rebuilt.Equal(v) || v.Hash() != rebuilt.Hash() {
		t.Fatalf("%v (%v) rebuilt from its accessors as %v (%v): Equal %v, hashes %x %x",
			v, v.Kind(), rebuilt, rebuilt.Kind(), v.Equal(rebuilt), v.Hash(), rebuilt.Hash())
	}
	k := v.Kind()
	if k != KindInt && v.AsInt() != 0 || k != KindInt && k != KindFloat && v.AsFloat() != 0 ||
		k != KindString && v.AsString() != "" || k != KindBool && v.AsBool() {
		t.Fatalf("%v (%v): accessors of other kinds read %d, %v, %q, %v",
			v, k, v.AsInt(), v.AsFloat(), v.AsString(), v.AsBool())
	}
	if v.IsNull() != (k == KindNull) || v.IsNumeric() != (k == KindInt || k == KindFloat) {
		t.Fatalf("%v (%v): IsNull %v, IsNumeric %v", v, k, v.IsNull(), v.IsNumeric())
	}
	got, rest, err := DecodeOrdered(v.AppendOrdered(nil))
	if err != nil || len(rest) != 0 || !samePayload(v, got) || got.Key() != v.Key() {
		t.Fatalf("%v (%v): ordered round trip gave %v (%v), %d bytes left, %v", v, k, got, got.Kind(), len(rest), err)
	}
}

// samePayload reports whether a and b are of one Kind with the same
// payload, a float's down to its sign bit.
func samePayload(a, b Value) bool {
	return a.Kind() == b.Kind() && a.AsInt() == b.AsInt() && a.AsString() == b.AsString() &&
		a.AsBool() == b.AsBool() && math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
}

// TestValueIdentity: every value of identityCorpus round-trips through its
// accessors and the ordered encoding, and every pair agrees on every form
// of equality (checkOneEquality).
func TestValueIdentity(t *testing.T) {
	vals := identityCorpus()
	for _, v := range vals {
		checkIdentity(t, v)
	}
	for _, a := range vals {
		for _, b := range vals {
			checkOneEquality(t, a, b)
		}
	}
	// The answers themselves, which the properties alone do not pin: an
	// Equal and a Compare wrong alike would agree.
	backing := "abab"
	for _, c := range []struct {
		a, b Value
		eq   bool
	}{
		{Str(backing[:2]), Str(backing[:4]), false},       // one address, two lengths
		{Str(backing[:2]), Str(backing[2:]), true},        // one backing array, two addresses
		{Str(backing[:2]), Str(backing[1:3]), false},      // one backing array, one length
		{Str(backing), Str(strings.Clone(backing)), true}, // two allocations
		{Str(""), Null(), false},                          // the empty string is not NULL
		{Float(0), Float(math.Copysign(0, -1)), true},     // ±0
		{Int(1<<53 + 1), Float(1 << 53), false},           // exact past 2^53
		{Int(math.MaxInt64), Float(1 << 63), false},       // and at the int64 edge
		{Int(math.MinInt64), Float(-(1 << 63)), true},     // where the float is exact
		{Bool(true), Int(1), false},                       // a bool is not a number
		{Bool(false), Bool(false), true},
	} {
		if c.a.Equal(c.b) != c.eq || c.b.Equal(c.a) != c.eq {
			t.Errorf("%v (%v) vs %v (%v): Equal %v, want %v", c.a, c.a.Kind(), c.b, c.b.Kind(), c.a.Equal(c.b), c.eq)
		}
	}
}

// FuzzValueIdentity builds two values from arbitrary inputs — strings cut
// from one backing string, so that they may share an address, or copied
// to their own — and checks each value's round trips and the pair's
// agreement on every form of equality (checkIdentity, checkOneEquality).
func FuzzValueIdentity(f *testing.F) {
	f.Add(uint8(3), uint8(3), "abab", uint8(0), uint8(2), uint8(2), uint8(4), int64(0), 0.0)
	f.Add(uint8(3), uint8(7), "abab", uint8(0), uint8(2), uint8(0), uint8(4), int64(0), 0.0)
	f.Add(uint8(3), uint8(0), "", uint8(0), uint8(0), uint8(0), uint8(0), int64(0), 0.0)
	f.Add(uint8(2), uint8(6), "", uint8(0), uint8(0), uint8(0), uint8(0), int64(0), math.Copysign(0, -1))
	f.Add(uint8(1), uint8(5), "", uint8(0), uint8(0), uint8(0), uint8(0), int64(1<<53+1), 0.0)
	f.Add(uint8(1), uint8(5), "", uint8(0), uint8(0), uint8(0), uint8(0), int64(math.MinInt64), 0.0)
	f.Add(uint8(4), uint8(1), "", uint8(0), uint8(0), uint8(0), uint8(0), int64(1), 0.0)
	// mk builds kind%8's value: 0 NULL, 1 int, 2 float, 3 the string
	// s[lo:hi] sharing s's bytes, 4 a bool, 5 the float nearest the int,
	// 6 the float's negation, 7 a copy of s[lo:hi] at its own address.
	mk := func(kind uint8, s string, lo, hi uint8, i int64, fl float64) Value {
		l, h := min(int(lo), len(s)), min(int(hi), len(s))
		l = min(l, h)
		switch kind % 8 {
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		case 3:
			return Str(s[l:h])
		case 4:
			return Bool(i&1 == 1)
		case 5:
			return Float(float64(i))
		case 6:
			return Float(-fl)
		case 7:
			return Str(strings.Clone(s[l:h]))
		}
		return Null()
	}
	f.Fuzz(func(t *testing.T, ka, kb uint8, s string, loA, hiA, loB, hiB uint8, i int64, fl float64) {
		a, b := mk(ka, s, loA, hiA, i, fl), mk(kb, s, loB, hiB, i, fl)
		checkIdentity(t, a)
		checkIdentity(t, b)
		checkOneEquality(t, a, b)
	})
}
