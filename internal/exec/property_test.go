package exec

import (
	"fmt"
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestStreamingEqualsMaterialized is the layer's property test: for random
// instances, every streaming operator must be bag-equal (under
// convention.SQL()) and set-equal (under convention.SetLogic()) to the
// corresponding materialized relation operation or nested-loop reference.
func TestStreamingEqualsMaterialized(t *testing.T) {
	convs := map[string]convention.Conventions{
		"SetLogic": convention.SetLogic(),
		"SQL":      convention.SQL(),
	}
	for name, conv := range convs {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				rng := workload.Rand(int64(1000 + trial))
				n := 5 + rng.Intn(60)
				r := workload.RandomBinary(rng, "R", "a", "b", n, n/2+1, n/3+1)
				s := workload.RandomBinary(rng, "S", "b", "c", n, n/3+1, 4)
				if conv.Semantics == convention.Set {
					r, s = r.Dedup(), s.Dedup()
				}

				// dedup: streaming vs relation.Dedup.
				check(t, trial, "dedup", conv,
					Materialize(Dedup(Scan(r), nil), "D", "a", "b"), r.Dedup())

				// σ: streaming filter vs a manual materialized filter.
				wantF := relation.New("F", "a", "b")
				r.Each(func(tp relation.Tuple, m int) {
					if tp[0].AsInt()%2 == 0 {
						wantF.InsertMult(tp, m)
					}
				})
				check(t, trial, "filter", conv,
					Materialize(Filter(Scan(r), func(tp relation.Tuple, _ int) bool {
						return tp[0].AsInt()%2 == 0
					}), "F", "a", "b"), wantF)

				// ⋈: hash join vs nested-loop reference (the instances hold
				// small non-NULL integers, where Key identity is Eq).
				attrs := []string{"a", "b", "b2", "c"}
				wantJ := rowsToRel(nestedLoopJoin(r, s, []int{1}, []int{0}), "J", attrs...)
				ht := BuildHashTable(Scan(s), []int{0}, s.Arity(), nil)
				check(t, trial, "hash-join", conv,
					Materialize(EquiJoin(Scan(r), []int{1}, ht, false, nil, nil), "J", attrs...), wantJ)

				// γ: streaming group/aggregate vs a reference fold.
				check(t, trial, "group-agg", conv,
					Materialize(GroupAggregate(Scan(r), []int{0},
						[]Agg{{Func: Count}, {Func: Sum, Col: 1}, {Func: Min, Col: 1}, {Func: Max, Col: 1}}, conv, nil),
						"G", "a", "ct", "sm", "mn", "mx"),
					referenceGroup(r, conv))
			}
		})
	}
}

// check asserts bag equality under bag semantics and set equality under
// set semantics.
func check(t *testing.T, trial int, op string, conv convention.Conventions, got, want *relation.Relation) {
	t.Helper()
	ok := got.EqualBag(want)
	if conv.Semantics == convention.Set {
		ok = got.EqualSet(want)
	}
	if !ok {
		t.Fatalf("trial %d: %s diverged under %s:\ngot\n%s\nwant\n%s", trial, op, conv, got, want)
	}
}

// referenceGroup computes count/sum/min/max per key with plain loops.
func referenceGroup(r *relation.Relation, conv convention.Conventions) *relation.Relation {
	type st struct {
		count    int
		sum      int64
		min, max value.Value
		any      bool
	}
	states := map[string]*st{}
	keys := map[string]value.Value{}
	var order []string
	r.Each(func(tp relation.Tuple, m int) {
		w := m
		if conv.Semantics == convention.Set {
			w = 1
		}
		k := tp[0].Key()
		g := states[k]
		if g == nil {
			g = &st{}
			states[k] = g
			keys[k] = tp[0]
			order = append(order, k)
		}
		v := tp[1]
		g.count += w
		g.sum += v.AsInt() * int64(w)
		if !g.any || v.Less(g.min) {
			g.min = v
		}
		if !g.any || g.max.Less(v) {
			g.max = v
		}
		g.any = true
	})
	out := relation.New("G", "a", "ct", "sm", "mn", "mx")
	for _, k := range order {
		g := states[k]
		out.Insert(relation.Tuple{keys[k], value.Int(int64(g.count)), value.Int(g.sum), g.min, g.max})
	}
	return out
}

// TestPropertySeedDeterminism guards the trial loop against accidental
// nondeterminism in the harness itself.
func TestPropertySeedDeterminism(t *testing.T) {
	a := workload.RandomBinary(workload.Rand(7), "R", "a", "b", 20, 5, 5)
	b := workload.RandomBinary(workload.Rand(7), "R", "a", "b", 20, 5, 5)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("workload generator is not deterministic")
	}
}
