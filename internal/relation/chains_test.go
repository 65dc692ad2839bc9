package relation

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/value"
)

// chainModel is what Chains must agree with: the slots added under each
// hash, in the order they were added.
type chainModel map[uint64][]int

// slotsOf returns the slots of a chain in order.
func slotsOf(ch Chain) []int {
	var slots []int
	for s := ch.First(); s >= 0; s = ch.Next(s) {
		slots = append(slots, s)
	}
	return slots
}

// chained is Chains under test with its model and the number of slots
// added.
type chained struct {
	c     Chains
	model chainModel
	n     int
	bad   string // the first Find that disagreed with the model
}

// add adds the next slot under h: by Add, or on every other slot by Find,
// whose chain must be the model's, and AddAt.
func (x *chained) add(h uint64) {
	if x.n%2 == 0 {
		x.c.Add(h)
	} else {
		ch, p := x.c.Find(h)
		if got := slotsOf(ch); !slices.Equal(got, x.model[h]) && x.bad == "" {
			x.bad = fmt.Sprintf("Find(%#x) walks %v, want %v", h, got, x.model[h])
		}
		x.c.AddAt(h, p)
	}
	x.model[h] = append(x.model[h], x.n)
	x.n++
}

// check walks the chain of every hash the model holds and of the absent
// ones, and holds each to the model.
func (x *chained) check(t *testing.T, what string, absent []uint64) {
	t.Helper()
	if x.bad != "" {
		t.Fatalf("%s: %s", what, x.bad)
	}
	for h, want := range x.model {
		if got := slotsOf(x.c.Chain(h)); !slices.Equal(got, want) {
			t.Fatalf("%s: chain of %#x is %v, want %v", what, h, got, want)
		}
	}
	for _, h := range absent {
		if _, ok := x.model[h]; ok {
			continue
		}
		if got := slotsOf(x.c.Chain(h)); len(got) > 0 {
			t.Fatalf("%s: chain of the absent hash %#x is %v", what, h, got)
		}
	}
}

func (x *chained) clone() *chained {
	m := make(chainModel, len(x.model))
	for h, s := range x.model {
		m[h] = slices.Clone(s)
	}
	return &chained{c: x.c.clone(), model: m, n: x.n}
}

// TestChainsMatchMap holds Chains to a map from hash to slots as it takes
// hashes that all share their top bits (every hash wants the same home in
// an open-addressed table, so probe runs get long), hashes that repeat
// (chains get long) and a mix, after each Reserve an empty Chains may get:
// none, 0, exactly as many slots as it takes, too few and too many. Along
// the way a chain captured before later Adds must stay as it was, and a
// clone added to on both sides must keep the two apart, and trimming its
// heads must change no chain.
func TestChainsMatchMap(t *testing.T) {
	const n = 3000
	streams := []struct {
		name string
		hash func(i int) uint64
	}{
		// Distinct hashes below 2^12: their top 52 bits are zero.
		{"shared top bits", func(i int) uint64 { return uint64(i) }},
		// Distinct hashes equal in their top 32 bits and their low 8.
		{"shared top and low bits", func(i int) uint64 { return 0xdead_beef<<32 | uint64(i)<<8 }},
		// Five hashes, so about 600 slots a chain.
		{"long chains", func(i int) uint64 { return uint64(i%5) * 0x9e3779b97f4a7c15 }},
		// Both at once: 150 hashes sharing their top bits, 20 slots each.
		{"long chains, shared top bits", func(i int) uint64 { return uint64(i*7919) % 150 }},
		{"spread", func(i int) uint64 { return uint64(i*i%1999) * 0x9e3779b97f4a7c15 }},
	}
	var absent []uint64
	for i := 0; i < 64; i++ {
		absent = append(absent, uint64(n+i), uint64(i)<<40, uint64(i+n)*0x9e3779b97f4a7c15, 0xdead_beef<<32|uint64(n+i)<<8)
	}
	for _, st := range streams {
		for _, reserve := range []int{-1, 0, n, n / 10, 10 * n} {
			t.Run(fmt.Sprintf("%s/reserve=%d", st.name, reserve), func(t *testing.T) {
				x := &chained{model: chainModel{}}
				if reserve >= 0 {
					x.c.Reserve(reserve)
				}
				x.check(t, "empty", absent)
				var captured []Chain
				var capturedWant [][]int
				var other *chained
				for i := 0; i < n; i++ {
					h := st.hash(i)
					x.add(h)
					if i&(i+1) == 0 {
						x.check(t, fmt.Sprintf("after %d slots", i+1), absent)
					}
					if i == n/3 {
						// Capture every chain, then add under the same hashes.
						for h, want := range x.model {
							captured = append(captured, x.c.Chain(h))
							capturedWant = append(capturedWant, slices.Clone(want))
						}
						other = x.clone()
						x.c.Reserve(10 * n) // holds slots: changes nothing
					}
					if other != nil {
						// The clone takes hashes of its own as well as the
						// stream's, shifted so both sides diverge.
						other.add(st.hash(n - i))
						if i%3 == 0 {
							other.add(uint64(1<<63) | uint64(i))
						}
					}
				}
				x.check(t, "final", absent)
				other.check(t, "clone", absent)
				// Trimmed, the Chains hold the same chains and go on adding.
				x.c.trim()
				x.check(t, "trimmed", absent)
				for i := 0; i < 100; i++ {
					x.add(st.hash(i))
				}
				x.check(t, "added to after trim", absent)
				for i, ch := range captured {
					if got := slotsOf(ch); !slices.Equal(got, capturedWant[i]) {
						t.Fatalf("a chain captured at slot %d walks %v, want %v", n/3, got, capturedWant[i])
					}
				}
				if maps.EqualFunc(x.model, other.model, slices.Equal) {
					t.Fatal("the clone's model never diverged: the test adds nothing to it")
				}
			})
		}
	}
}

// TestIndexBytesPerKey pins the resident size of relation indexes, which
// a server holds for as long as it serves the relation: the tuple index
// of a 100 000-row relation, grown one Insert at a time, plus the
// single-column probe index on its key column, built at the first Probe
// and presized — the two a point-read server holds on its table. On
// linux/amd64 with go1.24, Chains over a Go map held the two in 5 573 360
// bytes (55.7 a row), and the bound is that figure plus 15 %; the
// open-addressed Chains holds them in 5 800 448 bytes (58.0 a row).
func TestIndexBytesPerKey(t *testing.T) {
	const n = 100_000
	const bound = 5_573_360 * 115 / 100
	r := New("R", "A", "B")
	for i := 0; i < n; i++ {
		r.Insert(Tuple{value.Int(int64(i)), value.Int(int64(i % 997))})
	}
	r.Probe([]int{0}, Tuple{value.Int(1)}, func(Tuple, int) bool { return true })
	if r.index == nil || len(r.hashIdx) != 1 {
		t.Fatalf("want a tuple index and one probe index, have %v and %d", r.index != nil, len(r.hashIdx))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	r.index, r.hashIdx = nil, nil
	without := heap()
	runtime.KeepAlive(r)
	bytes := int64(with) - int64(without)
	t.Logf("indexes of %d rows: %d bytes, %.1f a row", n, bytes, float64(bytes)/n)
	if bytes > bound {
		t.Fatalf("indexes of %d rows hold %d bytes, more than the bound %d", n, bytes, bound)
	}
}

// TestLowCardinalityIndexBytes pins the resident size of a probe index
// built on a column of few values: 997 over 100 000 rows. Built presized
// for a head per row, it held 2 654 368 bytes for its 997 heads; trimmed
// to them, it holds the four bytes a row its chains take and little more.
func TestLowCardinalityIndexBytes(t *testing.T) {
	const n = 100_000
	const bound = 500_000
	r := New("R", "A", "B")
	for i := 0; i < n; i++ {
		r.Insert(Tuple{value.Int(int64(i)), value.Int(int64(i % 997))})
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	without := heap()
	r.Probe([]int{1}, Tuple{value.Int(1)}, func(Tuple, int) bool { return true })
	with := heap()
	ix := r.hashIdx["1,"]
	if ix == nil || len(ix.hashes) != 997 {
		t.Fatalf("want a probe index on B with 997 heads, have %v", ix)
	}
	runtime.KeepAlive(r)
	bytes := int64(with) - int64(without)
	t.Logf("index on %d rows of 997 values: %d bytes", n, bytes)
	if bytes > bound {
		t.Fatalf("index on %d rows of 997 values holds %d bytes, more than the bound %d", n, bytes, bound)
	}
}

// TestRowBytes pins what a relation's rows take without their indexes:
// 100 000 two-column rows, inserted one at a time. A slot is its two
// values and its count, 40 bytes, plus what the arrays' growth leaves
// unused.
func TestRowBytes(t *testing.T) {
	const n = 100_000
	const bound = 52 * n
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	r := New("R", "A", "B")
	for i := 0; i < n; i++ {
		r.Insert(Tuple{value.Int(int64(i)), value.Int(int64(i % 997))})
	}
	r.index, r.hashIdx = nil, nil
	bytes := int64(heap()) - int64(before)
	runtime.KeepAlive(r)
	t.Logf("rows of %d two-column tuples: %d bytes, %.1f a row", n, bytes, float64(bytes)/n)
	if bytes > bound {
		t.Fatalf("rows of %d tuples hold %d bytes, more than the bound %d", n, bytes, bound)
	}
}
