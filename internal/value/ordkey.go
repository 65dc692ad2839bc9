// ordkey.go implements the order-preserving binary key encoding used by
// the storage subsystem (internal/storage): a type-tagged byte string
// whose memcmp order agrees with Less across every pair of values —
// NULL sorts first, ints and floats interleave numerically, then
// strings, then bools. Encodings are round-trip decodable (the segment
// files store nothing but keys). The shape follows janus-datalog's
// key_encoder_binary.go: one tag byte per class, big-endian sign-flipped
// numerics, 0x00-escaped strings.
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

	// Numeric tie-breaks, appended after the 8-byte float sort key. The
	// values sharing one float key F are ordered: ints below F, the int
	// equal to F, the float F, ints above F (an int beyond 2^53 rounds to
	// the F of its neighbours). Each int byte is followed by the exact
	// int64 payload.
	ordNumIntBelow = 0x00
	ordNumInt      = 0x01
	ordNumFloat    = 0x02
	ordNumIntAbove = 0x03
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
// returns the extended slice: a.Less(b) implies bytes(a) < bytes(b).
// Values Less cannot tell apart (2 and 2.0, -0.0 and 0.0) still encode
// distinctly, so each round-trips to its own kind and bits.
//
// Concatenated encodings order tuples lexicographically: no value's
// encoding is a proper prefix of another's within a class, and class
// tags differ across classes.
func (v Value) AppendOrdered(b []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(b, ordTagNull)
	case KindInt:
		f := float64(v.i())
		b = appendU64(append(b, ordTagNum), f64key(f))
		// Ints beyond 2^53 share a float sort key with their neighbours:
		// the tie-break byte places the int against that float, and the
		// offset-binary int64 orders the ints on one side of it.
		tie := byte(ordNumInt)
		switch cmpIntFloat(v.i(), f) {
		case -1:
			tie = ordNumIntBelow
		case 1:
			tie = ordNumIntAbove
		}
		return appendU64(append(b, tie), v.n+(1<<63))
	case KindFloat:
		b = appendU64(append(b, ordTagNum), f64key(v.f()))
		return append(b, ordNumFloat)
	case KindString:
		b = append(b, ordTagString)
		s := v.str()
		for i := 0; i < len(s); i++ {
			c := s[i]
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
		case ordNumIntBelow, ordNumInt, ordNumIntAbove:
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
