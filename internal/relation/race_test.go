package relation

import (
	"sync"
	"testing"

	"repro/internal/value"
)

// TestConcurrentProbeInsertProbe is the -race stress test for the
// relation's locking discipline: writers insert (both new distinct tuples,
// which extend every cached index, and repeats, which bump multiplicities
// atomically) while readers concurrently probe — triggering lazy index
// builds from several goroutines at once — and scan. Run under -race this
// pins that lazy builds, incremental index maintenance, and multiplicity
// bumps never tear.
func TestConcurrentProbeInsertProbe(t *testing.T) {
	r := New("R", "a", "b")
	for i := 0; i < 64; i++ {
		r.Add(i%8, i)
	}
	const writers, readers, rounds = 4, 8, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Alternate new distinct tuples with multiplicity bumps on
				// existing ones.
				if i%2 == 0 {
					r.Add(i%8, 1000+w*rounds+i)
				} else {
					r.InsertMult(Tuple{Lift(i % 8), Lift(i % 64)}, 1)
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			probe := []value.Value{Lift(g % 8)}
			cols := []int{0}
			if g%2 == 1 {
				// A second column set forces a distinct lazy index build.
				cols = []int{1}
				probe = []value.Value{Lift(g)}
			}
			for i := 0; i < rounds; i++ {
				n := 0
				r.Probe(cols, probe, func(tup Tuple, m int) bool {
					if m <= 0 {
						t.Errorf("non-positive multiplicity %d", m)
						return false
					}
					n++
					return true
				})
				r.EachWhile(func(tup Tuple, m int) bool { return len(tup) == 2 })
				_ = r.Card()
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles, a probe must see every row a scan sees.
	for k := 0; k < 8; k++ {
		scan := 0
		r.Each(func(tup Tuple, m int) {
			if tup[0].Key() == Lift(k).Key() {
				scan += m
			}
		})
		probed := 0
		r.Probe([]int{0}, []value.Value{Lift(k)}, func(_ Tuple, m int) bool {
			probed += m
			return true
		})
		if scan != probed {
			t.Fatalf("key %d: scan sees %d occurrences, probe sees %d", k, scan, probed)
		}
	}
}

// TestProbeCallbackMayInsert pins the re-entrancy the fixpoint engine
// depends on: a Probe callback inserting new tuples into the relation
// being probed must neither deadlock nor corrupt the indexes, and the
// inserted tuples must be visible to the next probe.
func TestProbeCallbackMayInsert(t *testing.T) {
	r := New("E", "s", "d")
	r.Add(0, 1)
	probe := func(k int) []Tuple {
		var out []Tuple
		r.Probe([]int{0}, []value.Value{Lift(k)}, func(tup Tuple, _ int) bool {
			out = append(out, tup.Clone())
			return true
		})
		return out
	}
	// Derive one chain hop per probe, inserting mid-iteration.
	r.Probe([]int{0}, []value.Value{Lift(0)}, func(tup Tuple, _ int) bool {
		r.Insert(Tuple{tup[1], Lift(2)})
		return true
	})
	if got := probe(1); len(got) != 1 {
		t.Fatalf("tuple inserted during probe not visible afterwards: %v", got)
	}
	if !r.Contains(Tuple{Lift(1), Lift(2)}) {
		t.Fatalf("inserted tuple missing")
	}
	if d := r.Distinct(); d != 2 {
		t.Fatalf("distinct tuples = %d, want 2", d)
	}
}
