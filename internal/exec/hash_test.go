package exec

import (
	"slices"
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
)

// The tests below force unequal keys onto one hash value in each hashed
// structure of this package: the keys stay apart, and Equal keys — 2 and
// 2.0 — still meet.

const collided = 7 // the hash every key is given

func TestHashTableCollisions(t *testing.T) {
	ht := &HashTable{cols: []int{0}, arity: 2}
	for i, k := range []value.Value{value.Int(2), value.Int(3), value.Float(2), value.Null()} {
		ht.add(relation.Tuple{k, value.Int(int64(i))}, 1, collided)
	}
	matches := func(probe value.Value) (rows []int64) {
		vals := []value.Value{probe}
		ht.candidates(collided, func(_ int, r Row) bool {
			if ht.EqMatch(r, vals) {
				rows = append(rows, r.Tup[1].AsInt())
			}
			return true
		})
		return rows
	}
	for _, c := range []struct {
		probe value.Value
		want  []int64
	}{
		{value.Int(2), []int64{0, 2}},
		{value.Float(2), []int64{0, 2}},
		{value.Int(3), []int64{1}},
		{value.Int(4), nil},
		{value.Null(), nil},
	} {
		if got := matches(c.probe); !slices.Equal(got, c.want) {
			t.Errorf("probe %v matched build rows %v, want %v", c.probe, got, c.want)
		}
	}
}

func TestGroupAggregateCollisions(t *testing.T) {
	gs := hashed{grouping: newGrouping([]int{1}, []Agg{{Func: Count}}, convention.Conventions{})}
	for _, c := range []struct {
		key   value.Value
		group int
	}{
		{value.Int(2), 0}, {value.Int(3), 1}, {value.Float(2), 0}, {value.Null(), 2},
		{value.Str("2"), 3}, {value.Null(), 2}, {value.Int(3), 1},
	} {
		if g := gs.of(relation.Tuple{value.Str("x"), c.key}, collided); g != c.group {
			t.Fatalf("key %v (%v) joined group %d, want %d; group keys %v", c.key, c.key.Kind(), g, c.group, gs.keys)
		}
	}
	if gs.n != 4 || len(gs.keys) != 4 {
		t.Fatalf("%d groups with %d key values, want 4 and 4", gs.n, len(gs.keys))
	}
}

func TestDedupSetCollisions(t *testing.T) {
	s := set{w: 2}
	// Enough keys to grow the table several times, all under one hash.
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			k := value.Int(int64(i))
			if i%2 == 1 && round == 1 {
				k = value.Float(float64(i)) // Equal to the int the first round added
			}
			if added := s.add(relation.Tuple{k, value.Str("x")}, collided); added != (round == 0) {
				t.Fatalf("round %d: add(%v) = %v", round, k, added)
			}
		}
	}
	if s.n != 40 {
		t.Fatalf("%d distinct tuples, want 40", s.n)
	}
	// The public path agrees: Dedup keeps one of 2 and 2.0.
	in := func(yield func(relation.Tuple, int) bool) {
		for _, v := range []value.Value{value.Int(2), value.Float(2), value.Float(2.5), value.Float(3), value.Int(3), value.Int(2)} {
			if !yield(relation.Tuple{v}, 1) {
				return
			}
		}
	}
	if got := Collect(Dedup(in, nil)); len(got) != 3 {
		t.Fatalf("Dedup kept %v, want 2, 2.5 and 3", got)
	}
}
