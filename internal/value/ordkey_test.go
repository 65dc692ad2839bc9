package value

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// ordCorpus is a hand-picked set of boundary values plus a deterministic
// random sample, covering every class and the 2^53 exactness cliff.
func ordCorpus() []Value {
	vals := []Value{
		Null(),
		Int(math.MinInt64), Int(-1 << 53), Int(-1000), Int(-1), Int(0), Int(1),
		Int(42), Int(1 << 53), Int(1<<53 + 1), Int(math.MaxInt64),
		Float(math.Inf(-1)), Float(-1e300), Float(-2.5), Float(-0.0), Float(0),
		Float(0.5), Float(2), Float(2.5), Float(float64(1 << 53)), Float(1e300),
		Float(math.Inf(1)),
		Str(""), Str("a"), Str("a\x00"), Str("a\x00b"), Str("ab"), Str("b"),
		Str(strings.Repeat("z", 100)), Str("\x00"), Str("\xff"),
		Bool(false), Bool(true),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0:
			vals = append(vals, Int(rng.Int63()-rng.Int63()))
		case 1:
			vals = append(vals, Float((rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(40)-20))))
		case 2:
			n := rng.Intn(8)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(rng.Intn(256))
			}
			vals = append(vals, Str(string(b)))
		case 3:
			vals = append(vals, Bool(rng.Intn(2) == 0))
		}
	}
	return vals
}

// eqCorpus is ordCorpus plus the values where exact and float-coercing
// numeric comparison part ways: ±2^53±1 as ints and as floats with their
// float neighbours, the int64 extremes, ±2^63 as floats, -0, ±Inf, and
// NaN (which is NULL).
func eqCorpus() []Value {
	vals := ordCorpus()
	for _, n := range []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1 << 60, 1<<60 + 1} {
		for _, i := range []int64{n, -n} {
			f := float64(i)
			vals = append(vals, Int(i), Float(f), Float(math.Nextafter(f, math.Inf(1))), Float(math.Nextafter(f, math.Inf(-1))))
		}
	}
	return append(vals,
		Int(math.MinInt64), Int(math.MinInt64+1), Int(math.MaxInt64), Int(math.MaxInt64-1),
		Float(1<<63), Float(-(1 << 63)), Float(math.Nextafter(1<<63, 0)), Float(math.Nextafter(-(1<<63), 0)),
		Float(math.Copysign(0, -1)), Float(0), Int(0), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.NaN()), Float(0.5), Float(-0.5))
}

func TestOrderedKeyRoundTrip(t *testing.T) {
	for _, v := range eqCorpus() {
		enc := v.OrderedKey()
		got, rest, err := DecodeOrdered(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v: %d trailing bytes", v, len(rest))
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("round trip %v (%v) -> %v (%v)", v, v.Kind(), got, got.Kind())
		}
		// Ints must round-trip bit-exactly, not just Key-equal.
		if v.Kind() == KindInt && got.AsInt() != v.AsInt() {
			t.Fatalf("int round trip %d -> %d", v.AsInt(), got.AsInt())
		}
		if v.Kind() == KindFloat && math.Float64bits(got.AsFloat()) != math.Float64bits(v.AsFloat()) {
			t.Fatalf("float round trip %v -> %v", v.AsFloat(), got.AsFloat())
		}
	}
}

// TestOrderedKeyAgreesWithLess checks the core contract: byte order of
// encodings refines the Less / Compare order. Strictly less values must
// encode strictly smaller, at every magnitude (2^53+1 sorts after the
// float 2^53 it rounds to).
func TestOrderedKeyAgreesWithLess(t *testing.T) {
	vals := eqCorpus()
	for _, a := range vals {
		for _, b := range vals {
			ea, eb := a.OrderedKey(), b.OrderedKey()
			cmp := bytes.Compare(ea, eb)
			switch {
			case a.Less(b):
				if cmp >= 0 {
					t.Fatalf("%v < %v but key %x >= %x", a, b, ea, eb)
				}
			case b.Less(a):
				if cmp <= 0 {
					t.Fatalf("%v > %v but key %x <= %x", a, b, ea, eb)
				}
			}
		}
	}
}

// Tuple concatenation must stay lexicographic: if tuple a < tuple b
// columnwise (first strict difference decides), the concatenated
// encodings compare the same way.
func TestOrderedKeyTupleLex(t *testing.T) {
	tuples := [][]Value{
		{Int(1), Str("a")},
		{Int(1), Str("ab")},
		{Int(1), Str("b")},
		{Int(2), Str("")},
		{Float(2.5), Null()},
		{Int(3), Bool(false)},
		{Int(3), Bool(true)},
		{Str("a"), Int(0)},
	}
	enc := func(t []Value) []byte {
		var b []byte
		for _, v := range t {
			b = v.AppendOrdered(b)
		}
		return b
	}
	lessT := func(a, b []Value) bool {
		for i := range a {
			if a[i].Less(b[i]) {
				return true
			}
			if b[i].Less(a[i]) {
				return false
			}
		}
		return false
	}
	for _, a := range tuples {
		for _, b := range tuples {
			if lessT(a, b) && bytes.Compare(enc(a), enc(b)) >= 0 {
				t.Fatalf("tuple %v < %v but encodings disagree", a, b)
			}
		}
	}
}

func TestDecodeOrderedMalformed(t *testing.T) {
	bad := [][]byte{
		{}, {0x99}, {ordTagNum}, {ordTagNum, 1, 2, 3, 4, 5, 6, 7, 8},
		{ordTagNum, 1, 2, 3, 4, 5, 6, 7, 8, 0x07},
		{ordTagNum, 1, 2, 3, 4, 5, 6, 7, 8, 0x04},
		{ordTagNum, 1, 2, 3, 4, 5, 6, 7, 8, ordNumIntAbove, 1},
		{ordTagNum, 1, 2, 3, 4, 5, 6, 7, 8, ordNumInt, 1},
		{ordTagString, 'a'}, {ordTagString, 0x00}, {ordTagString, 0x00, 0x02},
		{ordTagBool},
	}
	for _, b := range bad {
		if _, _, err := DecodeOrdered(b); err == nil {
			t.Fatalf("decode %x: expected error", b)
		}
	}
}

// TestValueLayout pins the in-memory size of a Value: every stored tuple
// pays it once per column.
func TestValueLayout(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 16 {
		t.Fatalf("value.Value is %d bytes, want 16", got)
	}
}

// TestEdgePayloadEncodings pins, for the payloads at the edges of each
// representation, every accessor, the hash Key and the ordered encoding
// storage writes to disk (storage/codec.go encodes through AppendOrdered),
// so a change of Value's layout cannot change a byte a segment or WAL
// record holds. The table was recorded from the 48-byte layout; exact
// numeric comparison then changed the tie-break byte of the ints their
// float key rounds (MaxInt64, ±(2^53+1)), made NaN NULL, and gave the
// integral floats beyond 2^53 their int's Key.
func TestEdgePayloadEncodings(t *testing.T) {
	cases := []struct {
		v         Value
		kind      string
		asInt     int64
		floatBits uint64
		asString  string
		asBool    bool
		key       string
		ordered   string
	}{
		{Int(math.MinInt64), "int", -9223372036854775808, 0xc3e0000000000000, "", false, "\x01-9223372036854775808", "023c1fffffffffffff010000000000000000"},
		{Int(math.MaxInt64), "int", 9223372036854775807, 0x43e0000000000000, "", false, "\x019223372036854775807", "02c3e000000000000000ffffffffffffffff"},
		{Int(1<<53 - 1), "int", 9007199254740991, 0x433fffffffffffff, "", false, "\x019007199254740991", "02c33fffffffffffff01801fffffffffffff"},
		{Int(1<<53 + 1), "int", 9007199254740993, 0x4340000000000000, "", false, "\x019007199254740993", "02c340000000000000038020000000000001"},
		{Int(-1<<53 - 1), "int", -9007199254740993, 0xc340000000000000, "", false, "\x01-9007199254740993", "023cbfffffffffffff007fdfffffffffffff"},
		{Int(-1<<53 + 1), "int", -9007199254740991, 0xc33fffffffffffff, "", false, "\x01-9007199254740991", "023cc0000000000000017fe0000000000001"},
		{Float(1<<53 - 1), "float", 0, 0x433fffffffffffff, "", false, "\x019007199254740991", "02c33fffffffffffff02"},
		{Float(1<<53 + 1), "float", 0, 0x4340000000000000, "", false, "\x019007199254740992", "02c34000000000000002"},
		{Float(-1<<53 - 1), "float", 0, 0xc340000000000000, "", false, "\x01-9007199254740992", "023cbfffffffffffff02"},
		{Float(-1<<53 + 1), "float", 0, 0xc33fffffffffffff, "", false, "\x01-9007199254740991", "023cc000000000000002"},
		{Float(math.Copysign(0, -1)), "float", 0, 0x8000000000000000, "", false, "\x010", "027fffffffffffffff02"},
		{Float(math.NaN()), "null", 0, 0x0, "", false, "\x00N", "01"},
		{Float(1 << 60), "float", 0, 0x43b0000000000000, "", false, "\x011152921504606846976", "02c3b000000000000002"},
		{Float(-(1 << 63)), "float", 0, 0xc3e0000000000000, "", false, "\x01-9223372036854775808", "023c1fffffffffffff02"},
		{Float(1 << 63), "float", 0, 0x43e0000000000000, "", false, "\x029.223372036854776e+18", "02c3e000000000000002"},
		{Float(math.Inf(1)), "float", 0, 0x7ff0000000000000, "", false, "\x02+Inf", "02fff000000000000002"},
		{Float(math.Inf(-1)), "float", 0, 0xfff0000000000000, "", false, "\x02-Inf", "02000fffffffffffff02"},
		{Str(""), "string", 0, 0x0, "", false, "\x03", "030001"},
		{Str("\x00\x01"), "string", 0, 0x0, "\x00\x01", false, "\x03\x00\x01", "0300ff010001"},
		{Bool(true), "bool", 0, 0x0, "", true, "\x04t", "0401"},
		{Bool(false), "bool", 0, 0x0, "", false, "\x04f", "0400"},
		{Null(), "null", 0, 0x0, "", false, "\x00N", "01"},
	}
	for _, c := range cases {
		v := c.v
		if v.Kind().String() != c.kind || v.AsInt() != c.asInt || math.Float64bits(v.AsFloat()) != c.floatBits ||
			v.AsString() != c.asString || v.AsBool() != c.asBool {
			t.Errorf("%s: accessors (%s, %d, %#x, %q, %v), want (%s, %d, %#x, %q, %v)", v,
				v.Kind(), v.AsInt(), math.Float64bits(v.AsFloat()), v.AsString(), v.AsBool(),
				c.kind, c.asInt, c.floatBits, c.asString, c.asBool)
		}
		if v.Key() != c.key {
			t.Errorf("%s: Key %q, want %q", v, v.Key(), c.key)
		}
		if got := hex.EncodeToString(v.OrderedKey()); got != c.ordered {
			t.Errorf("%s: OrderedKey %s, want %s", v, got, c.ordered)
		}
	}
}

// TestDecodeOrderedParentIntBytes: files written before the numeric
// tie-break distinguished ints below and above their float key used 0x01
// for every int; those bytes still decode to the int they hold.
func TestDecodeOrderedParentIntBytes(t *testing.T) {
	for enc, want := range map[string]int64{
		"02c340000000000000018020000000000001": 1<<53 + 1,
		"023cbfffffffffffff017fdfffffffffffff": -1<<53 - 1,
		"02c3e000000000000001ffffffffffffffff": math.MaxInt64,
	} {
		b, _ := hex.DecodeString(enc)
		got, rest, err := DecodeOrdered(b)
		if err != nil || len(rest) != 0 || got.Kind() != KindInt || got.AsInt() != want {
			t.Errorf("decode %s = %v (%v), %d bytes left, %v; want int %d", enc, got, got.Kind(), len(rest), err, want)
		}
	}
}

// FuzzOrderedKey checks the ordered encoding on arbitrary pairs of
// values: each decodes back to a value of the same Kind and Key with no
// bytes left over, and byte order agrees with Less. The pair must also
// agree on Equal, Compare and Key (checkOneEquality).
func FuzzOrderedKey(f *testing.F) {
	f.Add(uint8(1), uint8(2), int64(2), int64(3), 2.0, 2.5, "", "a")
	f.Add(uint8(1), uint8(5), int64(1<<53+1), int64(1<<53), 0.0, 0.0, "", "")
	f.Add(uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "a\x00", "a")
	f.Add(uint8(2), uint8(2), int64(0), int64(0), math.Copysign(0, -1), math.Inf(-1), "", "")
	f.Add(uint8(0), uint8(4), int64(1), int64(0), math.NaN(), 0.0, "", "")
	mk := func(kind uint8, i int64, fl float64, s string) Value {
		switch kind % 6 {
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		case 3:
			return Str(s)
		case 4:
			return Bool(i&1 == 1)
		case 5:
			return Float(float64(i)) // ties an int of the other value
		}
		return Null()
	}
	f.Fuzz(func(t *testing.T, ka, kb uint8, ia, ib int64, fa, fb float64, sa, sb string) {
		a, b := mk(ka, ia, fa, sa), mk(kb, ib, fb, sb)
		ea, eb := a.OrderedKey(), b.OrderedKey()
		for _, c := range []struct {
			v   Value
			enc []byte
		}{{a, ea}, {b, eb}} {
			got, rest, err := DecodeOrdered(c.enc)
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode %v (%x): %v, %d bytes left", c.v, c.enc, err, len(rest))
			}
			if got.Kind() != c.v.Kind() || got.Key() != c.v.Key() {
				t.Fatalf("round trip %v (%v) -> %v (%v)", c.v, c.v.Kind(), got, got.Kind())
			}
		}
		if a.Less(b) && bytes.Compare(ea, eb) >= 0 {
			t.Fatalf("%v < %v but key %x >= %x", a, b, ea, eb)
		}
		if b.Less(a) && bytes.Compare(eb, ea) >= 0 {
			t.Fatalf("%v < %v but key %x >= %x", b, a, eb, ea)
		}
		checkOneEquality(t, a, b)
	})
}
