// ordkey.go implements the order-preserving binary key encoding used by
// the storage subsystem (internal/storage): a type-tagged byte string
// whose memcmp order agrees with Less across every pair of values —
// NULL sorts first, ints and floats interleave numerically, then
// strings, then bools. Encodings are round-trip decodable (the segment
// files store nothing but keys), and class prefixes plus a byte-string
// successor give half-open [lo,hi) byte ranges for range scans. The
// shape follows janus-datalog's key_encoder_binary.go: one tag byte per
// class, big-endian sign-flipped numerics, 0x00-escaped strings.
package value

import (
	"errors"
	"fmt"
	"math"
)

// Ordered-encoding class tags. Tag order is the Less kind order with the
// two numeric kinds collapsed into one class (they interleave by value).
const (
	ordTagNull   = 0x01
	ordTagNum    = 0x02
	ordTagString = 0x03
	ordTagBool   = 0x04

	// Numeric kind disambiguators, appended after the 8-byte sort key so
	// equal-valued ints and floats stay distinct (round trip) while
	// sorting adjacently.
	ordNumInt   = 0x01
	ordNumFloat = 0x02
)

// ErrBadOrdKey is wrapped by DecodeOrdered on malformed input.
var ErrBadOrdKey = errors.New("value: malformed ordered key")

// f64key maps a float64 onto a uint64 whose unsigned order matches the
// float order: flip all bits of negatives, flip only the sign bit of
// non-negatives.
func f64key(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

func f64unkey(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func takeU64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return v, b[8:], true
}

// AppendOrdered appends the order-preserving encoding of v to b and
// returns the extended slice. For any two values a, b:
//
//   - a.Less(b) implies bytes(a) < bytes(b);
//   - Compare(a,b) == 0 (e.g. 2 vs 2.0) implies the encodings share
//     their class prefix and differ only in the kind tiebreak,
//     so both fall inside the same [prefix, successor(prefix)) range.
//
// Concatenated encodings order tuples lexicographically: no value's
// encoding is a proper prefix of another's within a class, and class
// tags differ across classes.
func (v Value) AppendOrdered(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, ordTagNull)
	case KindInt:
		b = appendU64(append(b, ordTagNum), f64key(float64(v.i())))
		// Exact payload: ints beyond 2^53 share a float sort key with
		// their neighbours; the offset-binary int64 breaks the tie in
		// numeric order.
		return appendU64(append(b, ordNumInt), v.n+(1<<63))
	case KindFloat:
		b = appendU64(append(b, ordTagNum), f64key(v.f()))
		return append(b, ordNumFloat)
	case KindString:
		b = append(b, ordTagString)
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0x00 {
				b = append(b, 0x00, 0xFF)
				continue
			}
			b = append(b, c)
		}
		return append(b, 0x00, 0x01)
	case KindBool:
		if v.n != 0 {
			return append(b, ordTagBool, 0x01)
		}
		return append(b, ordTagBool, 0x00)
	}
	return append(b, 0xFF)
}

// OrderedKey returns the ordered encoding of v as a fresh slice.
func (v Value) OrderedKey() []byte { return v.AppendOrdered(nil) }

// DecodeOrdered decodes one value from the front of b, returning the
// value and the remaining bytes.
func DecodeOrdered(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("%w: empty input", ErrBadOrdKey)
	}
	switch b[0] {
	case ordTagNull:
		return Null(), b[1:], nil
	case ordTagNum:
		key, rest, ok := takeU64(b[1:])
		if !ok || len(rest) == 0 {
			return Value{}, nil, fmt.Errorf("%w: short numeric", ErrBadOrdKey)
		}
		switch rest[0] {
		case ordNumInt:
			iv, rest2, ok := takeU64(rest[1:])
			if !ok {
				return Value{}, nil, fmt.Errorf("%w: short int payload", ErrBadOrdKey)
			}
			return Int(int64(iv - (1 << 63))), rest2, nil
		case ordNumFloat:
			return Float(f64unkey(key)), rest[1:], nil
		}
		return Value{}, nil, fmt.Errorf("%w: bad numeric kind 0x%02x", ErrBadOrdKey, rest[0])
	case ordTagString:
		var s []byte
		rest := b[1:]
		for {
			if len(rest) < 1 {
				return Value{}, nil, fmt.Errorf("%w: unterminated string", ErrBadOrdKey)
			}
			c := rest[0]
			if c != 0x00 {
				s = append(s, c)
				rest = rest[1:]
				continue
			}
			if len(rest) < 2 {
				return Value{}, nil, fmt.Errorf("%w: dangling string escape", ErrBadOrdKey)
			}
			switch rest[1] {
			case 0xFF:
				s = append(s, 0x00)
				rest = rest[2:]
			case 0x01:
				return Str(string(s)), rest[2:], nil
			default:
				return Value{}, nil, fmt.Errorf("%w: bad string escape 0x%02x", ErrBadOrdKey, rest[1])
			}
		}
	case ordTagBool:
		if len(b) < 2 {
			return Value{}, nil, fmt.Errorf("%w: short bool", ErrBadOrdKey)
		}
		return Bool(b[1] != 0x00), b[2:], nil
	}
	return Value{}, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadOrdKey, b[0])
}

// AppendOrderedPrefix appends the class prefix of v: the part of the
// encoding shared by every value that Compare reports equal to v (for
// numerics the tag plus the 8-byte float sort key, collapsing 2 and 2.0;
// otherwise the full encoding). Every key for a tuple whose first value
// compares equal to v starts with exactly this prefix, so
// [prefix, OrderedSuccessor(prefix)) covers the whole tie group — the
// building block for range-scan bounds.
func (v Value) AppendOrderedPrefix(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return appendU64(append(b, ordTagNum), f64key(float64(v.i())))
	case KindFloat:
		return appendU64(append(b, ordTagNum), f64key(v.f()))
	}
	return v.AppendOrdered(b)
}

// OrderedSuccessor returns the smallest byte string strictly greater
// than every string that starts with p: increment the last
// incrementable byte and truncate. A nil result means +infinity (p was
// empty or all 0xFF).
func OrderedSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
