// Package value implements the scalar value system shared by every
// substrate in this repository: typed constants, SQL-style NULL, numeric
// coercion, arithmetic with NULL propagation, and the three-valued logic
// (3VL) that the paper's convention discussion (Section 2.6, Section 2.10)
// depends on.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. It is its own kind: a NULL carries
	// no payload and compares as Unknown under three-valued logic.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable string.
	KindString
	// KindBool is a boolean constant (used by conventions and tests; the
	// relational predicates themselves evaluate to TV, not Value).
	KindBool
)

// String returns the kind name as used in error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is an immutable scalar. The zero Value is NULL, so uninitialized
// attributes behave like SQL missing values without extra bookkeeping.
//
// A Value is 16 bytes: a pointer word p and a payload word n.
//
//   - NULL has p == nil (and n == 0).
//   - An int, float or bool has p == &kinds[kind] and n holding the int,
//     the float's IEEE bits, or the bool as 0 or 1.
//   - A string has p == unsafe.StringData(s) and n == len(s); the empty
//     string has p == &kinds[KindString].
//
// No string's bytes lie in kinds (it is private, and no string is ever
// built over it except the empty one), so Kind reads the kind off p with
// one range check. Values compare only through their methods — the
// zero-size func array makes == and map keys a compile error, because
// both would compare bit patterns and string addresses (-0 ≠ +0, 2 ≠
// 2.0, "a" ≠ a copy of "a") where Equal and Compare do not.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// kinds gives each non-NULL kind an address for p; its bytes are never
// read.
var kinds [KindBool + 1]byte

// kindPtr returns the p of a non-string value of kind k.
func kindPtr(k Kind) unsafe.Pointer { return unsafe.Pointer(&kinds[k]) }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{p: kindPtr(KindInt), n: uint64(v)} }

// Float returns a float value. NaN is not a number any comparison can
// order, so Float(NaN) is NULL (SQLite's rule): every Value that is not
// NULL equals itself.
func Float(v float64) Value {
	if v != v {
		return Value{}
	}
	return Value{p: kindPtr(KindFloat), n: math.Float64bits(v)}
}

// Str returns a string value. It shares s's bytes.
func Str(v string) Value {
	if len(v) == 0 {
		return Value{p: kindPtr(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{p: kindPtr(KindBool), n: 1}
	}
	return Value{p: kindPtr(KindBool)}
}

// Kind reports the dynamic type of v: the offset of p in kinds, NULL for
// nil, and a string for any other address.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&kinds)); d < uintptr(len(kinds)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// IsNull reports whether v is the NULL marker.
func (v Value) IsNull() bool { return v.p == nil }

// AsInt returns the integer payload. It is valid only for KindInt (0
// otherwise).
func (v Value) AsInt() int64 {
	if v.p != kindPtr(KindInt) {
		return 0
	}
	return v.i()
}

// AsFloat returns the float payload, coercing integers. It is valid for
// KindInt and KindFloat (0 otherwise).
func (v Value) AsFloat() float64 {
	switch v.p {
	case kindPtr(KindInt):
		return float64(v.i())
	case kindPtr(KindFloat):
		return v.f()
	}
	return 0
}

// AsString returns the string payload. It is valid only for KindString
// ("" otherwise).
func (v Value) AsString() string {
	if v.Kind() != KindString {
		return ""
	}
	return v.str()
}

// AsBool returns the boolean payload. It is valid only for KindBool.
func (v Value) AsBool() bool { return v.p == kindPtr(KindBool) && v.n != 0 }

// i, f and str read the payload as the kind it was stored as; str is
// valid only for a string.
func (v Value) i() int64    { return int64(v.n) }
func (v Value) f() float64  { return math.Float64frombits(v.n) }
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n) }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.p == kindPtr(KindInt) || v.p == kindPtr(KindFloat) }

// String renders v the way the experiment harness and goldens print it.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return "'" + v.str() + "'"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Key returns the canonical form of v under Equal: two values have the
// same Key exactly when they are Equal. Integers and floats that denote
// the same number share a key. The serving path identifies values by Hash
// and Equal; Key is the reference evaluators' independent identity, so a
// differential compares the two.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// AppendKey appends the Key encoding of v to b and returns the extended
// slice, for a reference's reusable buffer.
func (v Value) AppendKey(b []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(b, 0x00, 'N')
	case KindInt:
		return strconv.AppendInt(append(b, 0x01), v.i(), 10)
	case KindFloat:
		f := v.f()
		if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			// An integral float in int64 range equals exactly one int, so
			// it takes that int's key: 2.0 and 2 group together, and so do
			// 2^60 and 2^60.0.
			return strconv.AppendInt(append(b, 0x01), int64(f), 10)
		}
		return strconv.AppendFloat(append(b, 0x02), f, 'g', -1, 64)
	case KindString:
		return append(append(b, 0x03), v.str()...)
	case KindBool:
		if v.n != 0 {
			return append(b, 0x04, 't')
		}
		return append(b, 0x04, 'f')
	}
	return append(b, 0x05, '?')
}

// Equal reports strict equality under two-valued logic: NULL equals NULL,
// and otherwise Equal is Compare == 0. Relational predicate evaluation
// uses Compare (3VL-aware) instead; Equal exists for keys, dedup, and
// test assertions.
func (v Value) Equal(o Value) bool {
	if v.p == o.p {
		// One kind, or strings starting at one address: equal when the
		// payload words are, and otherwise only as floats -0 and +0.
		return v.n == o.n || v.p == kindPtr(KindFloat) && v.f() == o.f()
	}
	switch kv, ko := v.Kind(), o.Kind(); {
	case kv == KindString && ko == KindString:
		return v.str() == o.str()
	case kv == KindInt && ko == KindFloat:
		return cmpIntFloat(v.i(), o.f()) == 0
	case kv == KindFloat && ko == KindInt:
		return cmpIntFloat(o.i(), v.f()) == 0
	}
	return false
}

// Compare compares two non-null values, returning -1, 0, or +1 and true,
// or false when the values are incomparable (NULL involved, or mixed
// non-numeric kinds). Numeric comparison is exact: ints compare as
// int64, floats as float64, and an int with a float without rounding
// either side, so = is an equivalence at every magnitude.
func (v Value) Compare(o Value) (int, bool) {
	kv, ko := v.Kind(), o.Kind()
	if kv != ko {
		switch {
		case kv == KindInt && ko == KindFloat:
			return cmpIntFloat(v.i(), o.f()), true
		case kv == KindFloat && ko == KindInt:
			return -cmpIntFloat(o.i(), v.f()), true
		}
		return 0, false
	}
	switch kv {
	case KindInt:
		return cmp.Compare(v.i(), o.i()), true
	case KindFloat:
		return cmp.Compare(v.f(), o.f()), true
	case KindString:
		return cmp.Compare(v.str(), o.str()), true
	case KindBool:
		return int(v.n) - int(o.n), true // a bool's word is 0 or 1
	}
	return 0, false // NULL
}

// cmpIntFloat compares i with a non-NaN f exactly. A float outside the
// int64 range lies beyond every int; inside it, the integral part of f is
// an int64 that compares with i exactly, and on a tie the fractional
// part decides.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f < -(1 << 63):
		return 1
	case f >= 1<<63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-t)
}

// Less is a total order over all values (NULL first, then by kind, then by
// payload), used for canonical sorting of relations. It is not the SQL
// comparison — use Compare for predicate semantics.
func (v Value) Less(o Value) bool {
	if kv, ko := v.Kind(), o.Kind(); kv != ko && !(v.IsNumeric() && o.IsNumeric()) {
		return kv < ko
	}
	// Numeric kinds interleave by value so 1 < 1.5 < 2 regardless of kind.
	c, ok := v.Compare(o)
	return ok && c < 0
}

// Arithmetic. All operations propagate NULL and require numeric operands;
// the second return is false on a type error (the evaluator reports it).
// An int result that overflows int64 is the float result instead
// (SQLite's rule), never a wrapped int.

// arith applies fi to two ints — which reports false when the int64
// result overflows — and ff to any other numeric pair or an overflow.
func arith(a, b Value, fi func(int64, int64) (int64, bool), ff func(float64, float64) float64) (Value, bool) {
	if a.IsNull() || b.IsNull() {
		return Null(), true
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), false
	}
	if a.p == kindPtr(KindInt) && b.p == kindPtr(KindInt) {
		if r, ok := fi(a.i(), b.i()); ok {
			return Int(r), true
		}
	}
	return Float(ff(a.AsFloat(), b.AsFloat())), true
}

// Add returns a+b with NULL propagation.
func Add(a, b Value) (Value, bool) {
	return arith(a, b,
		func(x, y int64) (int64, bool) {
			r := x + y
			return r, (x^r)&(y^r) >= 0 // overflow flips the sign of both
		},
		func(x, y float64) float64 { return x + y })
}

// Sub returns a-b with NULL propagation.
func Sub(a, b Value) (Value, bool) {
	return arith(a, b,
		func(x, y int64) (int64, bool) {
			r := x - y
			return r, (x^y)&(x^r) >= 0 // overflow needs signs apart, and r's sign not x's
		},
		func(x, y float64) float64 { return x - y })
}

// Mul returns a*b with NULL propagation.
func Mul(a, b Value) (Value, bool) {
	return arith(a, b,
		func(x, y int64) (int64, bool) {
			r := x * y
			return r, x == 0 || r/x == y && !(x == -1 && y == math.MinInt64)
		},
		func(x, y float64) float64 { return x * y })
}

// Div returns a/b with NULL propagation. Integer division by zero and
// float division by zero both yield NULL-with-ok=false is too harsh for
// SQL flavor; we return NULL, true (SQL raises; engines differ) — the
// conventions layer documents this as DivZeroIsNull.
func Div(a, b Value) (Value, bool) {
	if a.IsNull() || b.IsNull() {
		return Null(), true
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), false
	}
	if b.AsFloat() == 0 {
		return Null(), true
	}
	if a.p == kindPtr(KindInt) && b.p == kindPtr(KindInt) && !(a.i() == math.MinInt64 && b.i() == -1) {
		return Int(a.i() / b.i()), true
	}
	return Float(a.AsFloat() / b.AsFloat()), true
}
