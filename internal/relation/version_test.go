package relation

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// This file is the version-independence net under structural sharing:
// seeded random commit histories against a Store, every retained snapshot
// compared with a plain-map model through every read path. What it pins
// is the sharing rule of docs/INVARIANTS.md §1 — a version, once taken,
// reads the same whatever later versions, hand-offs and folds do to the
// storage it shares — and it is what enforces that rule: internal/relation
// is the package arcvet's snapimmut exempts.

// vKey is one tuple of the two-column integer test relation; vModel maps
// each tuple of a version to its multiplicity.
type (
	vKey   [2]int
	vModel map[vKey]int
)

func (k vKey) tuple() Tuple { return tup(k[0], k[1]) }

func keyOf(t Tuple) vKey { return vKey{int(t[0].AsInt()), int(t[1].AsInt())} }

func (m vModel) clone() vModel {
	c := make(vModel, len(m))
	for k, n := range m {
		c[k] = n
	}
	return c
}

// vDomain is the range of column 0: small, so single-column probes hit
// several rows and range probes see ties.
const vDomain = 12

// diff reads r through every read path and reports the first disagreement
// with the model.
func diff(r *Relation, m vModel, rng *rand.Rand) error {
	// Each: once per distinct tuple, right multiplicity. order records the
	// iteration order the probes are checked against.
	var order []vKey
	seen := make(vModel, len(m))
	r.Each(func(t Tuple, n int) {
		k := keyOf(t)
		seen[k] += n
		order = append(order, k)
	})
	if len(order) != len(seen) {
		return fmt.Errorf("Each visited %d rows for %d distinct tuples", len(order), len(seen))
	}
	card := 0
	for k, n := range m {
		if seen[k] != n {
			return fmt.Errorf("Each: %v has multiplicity %d, model %d", k, seen[k], n)
		}
		if got := r.Mult(k.tuple()); got != n {
			return fmt.Errorf("Mult(%v) = %d, model %d", k, got, n)
		}
		card += n
	}
	if len(seen) != len(m) {
		return fmt.Errorf("Each saw %d distinct tuples, model %d", len(seen), len(m))
	}
	if r.Distinct() != len(m) || r.Card() != card {
		return fmt.Errorf("Distinct/Card = %d/%d, model %d/%d", r.Distinct(), r.Card(), len(m), card)
	}
	stopped := 0
	r.EachWhile(func(Tuple, int) bool { stopped++; return stopped < 3 })
	if stopped != min(3, len(m)) {
		return fmt.Errorf("EachWhile visited %d rows before stopping", stopped)
	}
	if absent := (vKey{-1, rng.Int()}); r.Mult(absent.tuple()) != 0 {
		return fmt.Errorf("Mult of an absent tuple is not 0")
	}

	// Probe on one column and on two: the matching rows in iteration order.
	collect := func(probe func(f func(Tuple, int) bool)) []vKey {
		var got []vKey
		probe(func(t Tuple, n int) bool {
			if k := keyOf(t); n != m[k] {
				got = append(got, vKey{-2, n})
			} else {
				got = append(got, k)
			}
			return true
		})
		return got
	}
	filter := func(keep func(vKey) bool) []vKey {
		var want []vKey
		for _, k := range order {
			if keep(k) {
				want = append(want, k)
			}
		}
		return want
	}
	for a := 0; a < vDomain; a++ {
		got := collect(func(f func(Tuple, int) bool) { r.Probe([]int{0}, []value.Value{Lift(a)}, f) })
		if want := filter(func(k vKey) bool { return k[0] == a }); !slices.Equal(got, want) {
			return fmt.Errorf("Probe(a=%d) = %v, want %v", a, got, want)
		}
	}
	for i := 0; i < 8 && len(order) > 0; i++ {
		k := order[rng.Intn(len(order))]
		if i%4 == 3 {
			k[1] = -1 - k[1] // absent
		}
		got := collect(func(f func(Tuple, int) bool) {
			r.Probe([]int{0, 1}, []value.Value{Lift(k[0]), Lift(k[1])}, f)
		})
		if want := filter(func(o vKey) bool { return o == k }); !slices.Equal(got, want) {
			return fmt.Errorf("Probe(%v) = %v, want %v", k, got, want)
		}
	}

	// RangeProbe: complete, ascending, ties in iteration order — the
	// stable sort of the matching rows of Each.
	for i := 0; i < 6; i++ {
		col := i % 2
		lo, hi := rng.Intn(vDomain), rng.Intn(vDomain)
		if col == 1 && len(order) > 0 {
			lo, hi = order[rng.Intn(len(order))][1], order[rng.Intn(len(order))][1]
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		loV, hiV := Lift(lo), Lift(hi)
		switch rng.Intn(4) {
		case 0:
			loV, lo, loIncl = value.Null(), -1<<62, true
		case 1:
			hiV, hi, hiIncl = value.Null(), 1<<62, true
		}
		want := filter(func(k vKey) bool {
			x := k[col]
			return (x > lo || loIncl && x == lo) && (x < hi || hiIncl && x == hi)
		})
		slices.SortStableFunc(want, func(a, b vKey) int { return a[col] - b[col] })
		got := collect(func(f func(Tuple, int) bool) { r.RangeProbe(col, loV, hiV, loIncl, hiIncl, f) })
		if !slices.Equal(got, want) {
			return fmt.Errorf("RangeProbe(col %d, %v..%v, %v/%v) = %v, want %v", col, loV, hiV, loIncl, hiIncl, got, want)
		}
	}

	// EqualBag, both ways, against a relation built from the model alone.
	flat := New("R", "a", "b")
	for k, n := range m {
		flat.InsertMult(k.tuple(), n)
	}
	if !r.EqualBag(flat) || !flat.EqualBag(r) || !r.EqualSet(flat) {
		return fmt.Errorf("EqualBag/EqualSet against a flat copy of the model fails")
	}
	return nil
}

// TestDeadSetSharesPagesWithoutWritingThem: with returns a set holding the
// old slots and the new, and leaves every set it was derived from as it
// was — including the pages the two share.
func TestDeadSetSharesPagesWithoutWritingThem(t *testing.T) {
	const size = 3*deadPage + 17
	rng := rand.New(rand.NewSource(1))
	var sets []*deadSet
	var want []map[int]bool
	var cur *deadSet
	retired := map[int]bool{}
	for round := 0; round < 40; round++ {
		var add []int
		for len(add) < 1+rng.Intn(5) {
			if s := rng.Intn(size); !retired[s] {
				retired[s] = true
				add = append(add, s)
			}
		}
		cur = cur.with(size, add...)
		sets, want = append(sets, cur), append(want, maps.Clone(retired))
	}
	for i, d := range sets {
		if d.count() != len(want[i]) {
			t.Fatalf("set %d counts %d slots, want %d", i, d.count(), len(want[i]))
		}
		for s := 0; s < size; s++ {
			if d.has(s) != want[i][s] {
				t.Fatalf("set %d: has(%d) = %v after %d later sets were derived from it", i, s, d.has(s), len(sets)-1-i)
			}
		}
	}
}

// history drives one seeded random commit history on relation R of a
// Store, keeping the model of the head.
type history struct {
	rng   *rand.Rand
	st    *Store
	head  vModel
	fresh int // next unused value of column 1

	lastBase *segment
	folds    int
}

func newHistory(seed int64, rows int) *history {
	h := &history{rng: rand.New(rand.NewSource(seed)), head: vModel{}}
	r := New("R", "a", "b")
	for i := 0; i < rows; i++ {
		k := h.freshKey()
		n := 1 + h.rng.Intn(2)
		r.InsertMult(k.tuple(), n)
		h.head[k] = n
	}
	h.st = NewStore(r)
	return h
}

func (h *history) freshKey() vKey {
	h.fresh++
	return vKey{h.rng.Intn(vDomain), h.fresh}
}

// residents lists the tuples of r that live in its base and in its delta.
func residents(r *Relation) (base, delta []vKey) {
	v := r.view()
	n := v.rows.len()
	v.each(func(t Tuple, _ int) { base = append(base, keyOf(t)) })
	return base[:len(base)-n], base[len(base)-n:]
}

// write applies one to four random operations to ws and to m, the model
// of what ws reads. Operations are picked relative to where a tuple
// lives in the working relation, so every insert/delete × base/delta/
// absent combination turns up.
func (h *history) write(ws *WriteSet, m vModel) error {
	for ops := 1 + h.rng.Intn(4); ops > 0; ops-- {
		base, delta := residents(ws.Relation("R"))
		pick := func(from []vKey) vKey { return from[h.rng.Intn(len(from))] }
		insert := func(k vKey, n int) error {
			m[k] += n
			return ws.Insert("R", k.tuple(), n)
		}
		remove := func(k vKey) error {
			got, err := ws.Delete("R", []Tuple{k.tuple()})
			if err == nil && got != m[k] {
				err = fmt.Errorf("Delete(%v) removed %d occurrences, model %d", k, got, m[k])
			}
			delete(m, k)
			return err
		}
		var err error
		switch kind := h.rng.Intn(8); {
		case kind == 1 && len(base) > 0: // duplicate of a base row
			err = insert(pick(base), 1)
		case kind == 2 && len(delta) > 0: // duplicate of a delta row
			err = insert(pick(delta), 2)
		case kind == 3 && len(base) > 0:
			err = remove(pick(base))
		case kind == 4 && len(delta) > 0:
			err = remove(pick(delta))
		case kind == 5: // absent
			err = remove(vKey{h.rng.Intn(vDomain), -1 - h.rng.Intn(1000)})
		case kind == 6 && len(base)+len(delta) > 0: // delete, then re-insert the same key
			k := pick(append(base, delta...))
			if err = remove(k); err == nil {
				err = insert(k, 1)
			}
		case kind == 7:
			err = insert(h.freshKey(), 2+h.rng.Intn(2))
		default:
			err = insert(h.freshKey(), 1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// commit runs one transaction of the history: usually a write set that
// commits, sometimes one that is abandoned, sometimes two of which the
// second must lose first-committer-wins.
func (h *history) commit() error {
	ws, m := h.st.Begin(), h.head.clone()
	if err := h.write(ws, m); err != nil {
		return err
	}
	var loser *WriteSet
	switch h.rng.Intn(10) {
	case 0: // abandoned: nothing of it may show
		return nil
	case 1:
		loser = h.st.Begin()
		if err := h.write(loser, h.head.clone()); err != nil {
			return err
		}
	}
	if _, err := h.st.Commit(ws); err != nil {
		return err
	}
	if !ws.Dirty() {
		return nil // it only deleted absent tuples: not a write, and no conflict for the other
	}
	h.head = m
	if loser != nil && loser.Dirty() {
		if _, err := h.st.Commit(loser); !errors.Is(err, ErrConflict) {
			return fmt.Errorf("second committer: err = %v, want ErrConflict", err)
		}
	}
	if b := h.st.Head().Relation("R").view().base; b != h.lastBase {
		if h.lastBase != nil {
			h.folds++
		}
		h.lastBase = b
	}
	return nil
}

// cloneProbe checks Clone's value semantics in both directions on a clone
// of r (content m): mutating the clone leaves r alone, and mutating the
// source of a second-generation clone leaves that clone alone.
func (h *history) cloneProbe(r *Relation, m vModel) error {
	c, cm := r.Clone(), m.clone()
	k := h.freshKey()
	c.InsertMult(k.tuple(), 1)
	cm[k] = 1
	if base, _ := residents(c); len(base) > 0 {
		d := base[h.rng.Intn(len(base))]
		c.RemoveKeys([]Tuple{d.tuple()})
		delete(cm, d)
		if h.rng.Intn(2) == 0 {
			c.InsertMult(d.tuple(), 3)
			cm[d] = 3
		}
	}
	if err := diff(r, m, h.rng); err != nil {
		return fmt.Errorf("source after mutating its clone: %w", err)
	}
	c2, c2m := c.Clone(), cm.clone()
	c.InsertMult(k.tuple(), 1) // bumps a delta row c2 copied
	c.RemoveKeys([]Tuple{k.tuple()})
	delete(cm, k)
	if err := diff(c2, c2m, h.rng); err != nil {
		return fmt.Errorf("clone after mutating its source: %w", err)
	}
	if err := diff(c, cm, h.rng); err != nil {
		return fmt.Errorf("mutated clone: %w", err)
	}
	return nil
}

// kept is a retained snapshot with the model of its content.
type kept struct {
	snap *Snapshot
	m    vModel
}

// TestVersionIndependence runs histories on relations below the fold
// budget's floor, just above it and well above it, for several budgets'
// worth of commits each, checking the head after every commit and every
// retained snapshot periodically.
func TestVersionIndependence(t *testing.T) {
	for _, rows := range []int{4, 150, 600} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rows=%d/seed=%d", rows, seed), func(t *testing.T) {
				h := newHistory(seed, rows)
				var retained []kept
				commits := 5 * foldBudget(rows)
				for i := 0; i < commits; i++ {
					if err := h.commit(); err != nil {
						t.Fatalf("commit %d: %v", i, err)
					}
					head := h.st.Head()
					if err := diff(head.Relation("R"), h.head, h.rng); err != nil {
						t.Fatalf("head after commit %d (gen %d): %v", i, head.Gen(), err)
					}
					if i%7 == 0 {
						retained = append(retained, kept{head, h.head})
					}
					if i%23 == 0 {
						if err := h.cloneProbe(head.Relation("R"), h.head); err != nil {
							t.Fatalf("after commit %d: %v", i, err)
						}
					}
					if i%(commits/6) == 0 || i == commits-1 {
						for _, k := range retained {
							if err := diff(k.snap.Relation("R"), k.m, h.rng); err != nil {
								t.Fatalf("snapshot gen %d, read after commit %d: %v", k.snap.Gen(), i, err)
							}
						}
					}
				}
				if h.folds < 3 {
					t.Fatalf("history crossed %d folds in %d commits, want at least 3", h.folds, commits)
				}
			})
		}
	}
}

// TestVersionIndependenceConcurrent is the -race variant: four readers
// check retained snapshots and the latest head against their models while
// the writer keeps committing — cloning, and so re-basing and folding,
// the very relations being read.
func TestVersionIndependenceConcurrent(t *testing.T) {
	h := newHistory(7, 400)
	var (
		mu       sync.Mutex
		retained = []kept{{h.st.Head(), h.head}}
		latest   atomic.Pointer[kept]
		done     = make(chan struct{})
		wg       sync.WaitGroup
	)
	latest.Store(&retained[0])
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := *latest.Load()
				if i%2 == 0 {
					mu.Lock()
					k = retained[rng.Intn(len(retained))]
					mu.Unlock()
				}
				if err := diff(k.snap.Relation("R"), k.m, rng); err != nil {
					t.Errorf("reader %d, snapshot gen %d: %v", g, k.snap.Gen(), err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 4*foldBudget(400); i++ {
		if err := h.commit(); err != nil {
			t.Errorf("commit %d: %v", i, err)
			break
		}
		k := kept{h.st.Head(), h.head}
		latest.Store(&k)
		if i%10 == 0 {
			mu.Lock()
			retained = append(retained, k)
			mu.Unlock()
		}
	}
	close(done)
	wg.Wait()
	if h.folds < 3 {
		t.Fatalf("history crossed %d folds, want at least 3", h.folds)
	}
}
