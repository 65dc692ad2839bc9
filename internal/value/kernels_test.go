package value

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// kernelCorpus returns n values of mixed kinds — 40% ints, 20% floats,
// 30% strings, 10% NULLs — and for each a partner: half the time a value
// Equal to it built separately (an equal string at another address, an
// int's float twin), otherwise another value of the corpus.
func kernelCorpus(n int) (vals, partners []Value) {
	rng := rand.New(rand.NewSource(1))
	vals = make([]Value, n)
	for i := range vals {
		switch r := rng.Intn(10); {
		case r < 4:
			vals[i] = Int(rng.Int63n(1000))
		case r < 6:
			vals[i] = Float(float64(rng.Intn(1000)) / 4)
		case r < 9:
			vals[i] = Str("s" + strconv.Itoa(rng.Intn(1000)))
		}
	}
	partners = make([]Value, n)
	for i, v := range vals {
		if rng.Intn(2) == 0 {
			partners[i] = vals[(i*7+3)%n]
			continue
		}
		switch v.Kind() {
		case KindInt:
			partners[i] = Float(float64(v.AsInt()))
		case KindString:
			partners[i] = Str(strings.Clone(v.AsString()))
		default:
			partners[i] = v
		}
	}
	return vals, partners
}

var (
	sinkInt  int
	sinkHash uint64
	sinkKind Kind
)

// BenchmarkValueKernels times the value kernels every index, join, group
// and dedup runs per row, one call per op, over a mixed-kind corpus.
func BenchmarkValueKernels(b *testing.B) {
	const n = 1024 // a power of two: i&(n-1) walks the corpus
	vals, partners := kernelCorpus(n)
	tuples, probes := make([]Tuple, n), make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{vals[i], vals[(i+1)%n], vals[(i+2)%n], vals[(i+3)%n]}
		probes[i] = Tuple{partners[i], partners[(i+2)%n]}
	}
	cols := []int{0, 2}
	b.Run("Kind", func(b *testing.B) {
		var k Kind
		for i := 0; i < b.N; i++ {
			k ^= vals[i&(n-1)].Kind()
		}
		sinkKind = k
	})
	b.Run("Equal", func(b *testing.B) {
		var c int
		for i := 0; i < b.N; i++ {
			if vals[i&(n-1)].Equal(partners[i&(n-1)]) {
				c++
			}
		}
		sinkInt = c
	})
	b.Run("Compare", func(b *testing.B) {
		var c int
		for i := 0; i < b.N; i++ {
			r, _ := vals[i&(n-1)].Compare(partners[i&(n-1)])
			c += r
		}
		sinkInt = c
	})
	b.Run("Hash", func(b *testing.B) {
		var h uint64
		for i := 0; i < b.N; i++ {
			h ^= vals[i&(n-1)].Hash()
		}
		sinkHash = h
	})
	b.Run("HashAt", func(b *testing.B) {
		var h uint64
		for i := 0; i < b.N; i++ {
			h ^= tuples[i&(n-1)].HashAt(cols)
		}
		sinkHash = h
	})
	b.Run("EqualAt", func(b *testing.B) {
		var c int
		for i := 0; i < b.N; i++ {
			if tuples[i&(n-1)].EqualAt(cols, probes[i&(n-1)]) {
				c++
			}
		}
		sinkInt = c
	})
}
