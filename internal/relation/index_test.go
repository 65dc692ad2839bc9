package relation

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func probeAll(r *Relation, cols []int, vals []value.Value) []Tuple {
	var out []Tuple
	r.Probe(cols, vals, func(t Tuple, _ int) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

func TestProbeBasic(t *testing.T) {
	r := New("R", "a", "b").Add(1, 10).Add(1, 11).Add(2, 20)
	got := probeAll(r, []int{0}, []value.Value{value.Int(1)})
	if len(got) != 2 {
		t.Fatalf("probe a=1: got %d tuples, want 2", len(got))
	}
	if got := probeAll(r, []int{0}, []value.Value{value.Int(9)}); len(got) != 0 {
		t.Fatalf("probe a=9: got %d tuples, want 0", len(got))
	}
	// Multi-column probe.
	if got := probeAll(r, []int{0, 1}, []value.Value{value.Int(1), value.Int(11)}); len(got) != 1 {
		t.Fatalf("probe (a,b)=(1,11): got %d tuples, want 1", len(got))
	}
}

// TestProbeSeesInsertedTuple is the invalidation contract: probe, insert,
// probe again must reflect the new tuple (the index is rebuilt lazily
// after an insert of a new distinct tuple).
func TestProbeSeesInsertedTuple(t *testing.T) {
	r := New("R", "a", "b").Add(1, 10)
	if got := probeAll(r, []int{0}, []value.Value{value.Int(1)}); len(got) != 1 {
		t.Fatalf("before insert: got %d tuples, want 1", len(got))
	}
	r.Add(1, 99)
	got := probeAll(r, []int{0}, []value.Value{value.Int(1)})
	if len(got) != 2 {
		t.Fatalf("after insert: got %d tuples, want 2 (stale index?)", len(got))
	}
	// A multiplicity bump keeps row slots valid and must be visible too.
	r.Add(1, 99)
	found := false
	r.Probe([]int{0}, []value.Value{value.Int(1)}, func(tp Tuple, m int) bool {
		if tp[1].AsInt() == 99 {
			found = m == 2
		}
		return true
	})
	if !found {
		t.Fatal("multiplicity bump not visible through the index")
	}
}

// TestIncrementalIndexMaintenance pins the probe-insert-probe contract
// for the incremental path: inserts append to every already-built index
// (several column sets at once) instead of dropping them, and the
// appended slots agree with a freshly built index.
func TestIncrementalIndexMaintenance(t *testing.T) {
	r := New("R", "a", "b", "c")
	for i := 0; i < 8; i++ {
		r.Add(i%3, i%2, i)
	}
	// Build three different indexes, then interleave inserts and probes.
	colSets := [][]int{{0}, {1}, {0, 1}}
	for _, cols := range colSets {
		probeAll(r, cols, make([]value.Value, len(cols)))
	}
	for i := 8; i < 40; i++ {
		r.Add(i%3, i%2, i)
		for _, cols := range colSets {
			vals := []value.Value{value.Int(int64(i % 3)), value.Int(int64(i % 2))}[:len(cols)]
			if cols[0] == 1 {
				vals = []value.Value{value.Int(int64(i % 2))}
			}
			got := probeAll(r, cols, vals)
			// Cross-check against a scan with the same key.
			want := 0
			r.Each(func(tp Tuple, _ int) {
				match := true
				for j, c := range cols {
					if tp[c].Key() != vals[j].Key() {
						match = false
						break
					}
				}
				if match {
					want++
				}
			})
			if len(got) != want {
				t.Fatalf("after insert %d: probe %v=%v saw %d tuples, scan saw %d",
					i, cols, vals, len(got), want)
			}
		}
	}
	// A relation whose index was built after the fact must agree.
	fresh := r.Clone()
	for _, cols := range colSets {
		for _, vals := range [][]value.Value{
			{value.Int(0), value.Int(0)}, {value.Int(1), value.Int(1)}, {value.Int(2), value.Int(0)},
		} {
			a := probeAll(r, cols, vals[:len(cols)])
			b := probeAll(fresh, cols, vals[:len(cols)])
			if len(a) != len(b) {
				t.Fatalf("incremental index diverges from fresh build on %v: %d vs %d", cols, len(a), len(b))
			}
		}
	}
}

func TestProbeNumericKeyAlignment(t *testing.T) {
	r := New("R", "a").Add(2)
	if got := probeAll(r, []int{0}, []value.Value{value.Float(2)}); len(got) != 1 {
		t.Fatalf("probe a=2.0 against int 2: got %d tuples, want 1", len(got))
	}
}

func TestProbeEmptyColsIsScan(t *testing.T) {
	r := New("R", "a").Add(1).Add(2)
	if got := probeAll(r, nil, nil); len(got) != 2 {
		t.Fatalf("zero-column probe: got %d tuples, want full scan (2)", len(got))
	}
}

// TestProbeMatchesScanProperty: for random instances and probe values, the
// probe result must equal the filter of a full scan on key equality.
func TestProbeMatchesScanProperty(t *testing.T) {
	f := func(xs []int8, probe int8) bool {
		r := New("R", "x")
		for _, x := range xs {
			r.Add(int(x))
		}
		want := 0
		r.Each(func(tp Tuple, m int) {
			if tp[0].Key() == value.Int(int64(probe)).Key() {
				want += m
			}
		})
		got := 0
		r.Probe([]int{0}, []value.Value{value.Int(int64(probe))}, func(_ Tuple, m int) bool {
			got += m
			return true
		})
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProbeAllocatesNothing pins that a probe allocates nothing once its
// index is built: on one column, on all columns, and on a proper
// multi-column subset, whose index is found by a signature built on the
// stack — with and without a base.
func TestProbeAllocatesNothing(t *testing.T) {
	r := New("R", "a", "b", "c")
	for i := 0; i < 100; i++ {
		r.Add(i%7, i%5, i)
	}
	n := 0
	count := func(Tuple, int) bool { n++; return true }
	for _, rel := range []*Relation{r, r.Clone()} {
		for _, c := range []struct {
			cols []int
			vals []value.Value
		}{
			{[]int{0}, []value.Value{value.Int(3)}},
			{[]int{0, 1, 2}, []value.Value{value.Int(3), value.Int(0), value.Int(10)}},
			{[]int{0, 2}, []value.Value{value.Int(3), value.Int(10)}},
			{[]int{2, 1}, []value.Value{value.Int(10), value.Int(0)}},
		} {
			rel.Probe(c.cols, c.vals, count) // builds the index
			if a := testing.AllocsPerRun(100, func() { rel.Probe(c.cols, c.vals, count) }); a != 0 {
				t.Errorf("probe on %v allocates %v per run, want 0", c.cols, a)
			}
		}
	}
}

// TestProberHoldsItsVersion: a Prober finds the rows the relation held
// when it was taken — over a base with dead rows and a delta — whatever
// later inserts and removals do to the relation, while Probe sees them.
func TestProberHoldsItsVersion(t *testing.T) {
	r := New("R", "k", "v")
	for i := 0; i < 6; i++ {
		r.Add(i%2, i)
	}
	r = r.Clone()                                       // rows 0..5 move to a base
	r.RemoveKeys([]Tuple{{value.Int(0), value.Int(2)}}) // a dead base row
	r.Add(0, 6).Add(1, 7)                               // a delta
	vals := func(f func(func(Tuple, int) bool)) (out []int64) {
		f(func(t Tuple, _ int) bool { out = append(out, t[1].AsInt()); return true })
		return out
	}
	key := []value.Value{value.Int(0)}
	p := r.Prober([]int{0})
	held := func() []int64 { return vals(func(f func(Tuple, int) bool) { p.Probe(key, f) }) }
	live := func() []int64 { return vals(func(f func(Tuple, int) bool) { r.Probe([]int{0}, key, f) }) }
	want := []int64{0, 4, 6}
	if got := held(); !slices.Equal(got, want) || !slices.Equal(live(), want) {
		t.Fatalf("prober %v, probe %v; want %v", got, live(), want)
	}
	r.Add(0, 8)                                         // grows the delta's live index
	r.RemoveKeys([]Tuple{{value.Int(0), value.Int(4)}}) // retires a base row
	r.RemoveKeys([]Tuple{{value.Int(0), value.Int(6)}}) // rebuilds the delta
	if got := held(); !slices.Equal(got, want) {
		t.Errorf("prober after writes %v, want the held %v", got, want)
	}
	if got := live(); !slices.Equal(got, []int64{0, 8}) {
		t.Errorf("probe after writes %v, want [0 8]", got)
	}
}
