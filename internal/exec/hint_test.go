package exec

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestSetReserveMatchesMap holds a set reserved for n entries, n not a
// power of two, to a map as it takes up to three times as many items as
// it reserved, with duplicates and with hashes that collide: add reports
// a new item exactly when the map lacks it, and entry j is the j-th new
// item, inside the reserved block and past it.
func TestSetReserveMatchesMap(t *testing.T) {
	rng := workload.Rand(7)
	for trial := 0; trial < 200; trial++ {
		n := minBlock + 1 + rng.Intn(300)
		if bits.OnesCount(uint(n)) == 1 {
			n++
		}
		s := set{w: 1}
		s.reserve(n)
		if s.heads != n || len(s.head) != n {
			t.Fatalf("reserve(%d) made a first block of %d items, %d values", n, s.heads, len(s.head))
		}
		seen := map[int]bool{}
		var order []int
		for i := 0; i < 4*n; i++ {
			x := rng.Intn(3 * n)
			h := uint64(x%(n/2+1)) * 0x9e3779b97f4a7c15 // collisions: about two items a hash
			if got, want := s.add(relation.Tuple{value.Int(int64(x))}, h), !seen[x]; got != want {
				t.Fatalf("n=%d: add(%d) = %v, want %v", n, x, got, want)
			}
			if !seen[x] {
				seen[x] = true
				order = append(order, x)
			}
		}
		if s.n != len(order) {
			t.Fatalf("n=%d: %d entries, want %d", n, s.n, len(order))
		}
		for j, x := range order {
			if got := s.at(j)[0].AsInt(); got != int64(x) {
				t.Fatalf("n=%d: entry %d is %d, want %d", n, j, got, x)
			}
		}
		if len(order) > n && len(s.blocks) == 0 {
			t.Fatalf("n=%d: %d entries and no block past the reserved one", n, len(order))
		}
	}
}

// TestHintsChangeCapacityOnly runs Dedup, GroupAggregate and
// BuildHashTable with no hint and with hints far above, just at and far
// below the size they reach: the rows are the same, and each records the
// size its drained run reached. A Dedup its consumer stops records
// nothing.
func TestHintsChangeCapacityOnly(t *testing.T) {
	rng := workload.Rand(11)
	r := workload.RandomBinary(rng, "R", "a", "b", 400, 90, 30)
	aggs := []Agg{{Func: Count}, {Func: Sum, Col: 1}, {Func: CountDistinct, Col: 1}}
	ops := []struct {
		name string
		run  func(h *SizeHint) []Row
		size int
	}{
		{"Dedup", func(h *SizeHint) []Row { return Collect(Dedup(Scan(r), h)) }, r.Distinct()},
		{"GroupAggregate", func(h *SizeHint) []Row {
			return Collect(GroupAggregate(Scan(r), []int{0}, aggs, convention.SQL(), h))
		}, len(Collect(GroupAggregate(Scan(r), []int{0}, aggs, convention.SQL(), nil)))},
		{"BuildHashTable", func(h *SizeHint) []Row { return BuildHashTable(Scan(r), []int{1}, 2, h).rows }, r.Distinct()},
	}
	for _, op := range ops {
		want := op.run(nil)
		for _, start := range []int{0, 3 * op.size, op.size, 9, 1 << 20} {
			h := &SizeHint{}
			h.Record(start)
			if got := op.run(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s with a hint of %d: rows differ from the unhinted run", op.name, start)
			}
			if h.Size() != op.size {
				t.Fatalf("%s with a hint of %d: recorded %d, want %d", op.name, start, h.Size(), op.size)
			}
		}
	}
	h := &SizeHint{}
	for range Dedup(Scan(r), h) {
		break
	}
	if h.Size() != 0 {
		t.Fatalf("a Dedup stopped at its first row recorded %d", h.Size())
	}
	h.Record(1 << 30)
	if h.Size() != maxSizeHint {
		t.Fatalf("a hint recorded %d for 1<<30, want the cap %d", h.Size(), maxSizeHint)
	}
	var none *SizeHint
	none.Record(5)
	if none.Size() != 0 {
		t.Fatal("a nil hint has a size")
	}
}
