package relation

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/value"
)

func tup(vals ...any) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Lift(v)
	}
	return t
}

func TestStoreSnapshotIsolation(t *testing.T) {
	r := New("e", "src", "dst")
	r.Add(1, 2).Add(2, 3)
	st := NewStore(r)

	before := st.Head()
	if before.Gen() != 1 {
		t.Fatalf("initial gen = %d, want 1", before.Gen())
	}

	ws := st.Begin()
	if err := ws.Insert("e", tup(3, 4), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Delete("e", []Tuple{tup(1, 2)}); err != nil {
		t.Fatal(err)
	}

	// Uncommitted writes are invisible to the head snapshot…
	if got := before.Relation("e").Card(); got != 2 {
		t.Fatalf("pre-commit head card = %d, want 2", got)
	}
	// …but visible through the write set's overlay (read-your-writes).
	ov := ws.Relation("e")
	if !ov.Contains(tup(3, 4)) || ov.Contains(tup(1, 2)) {
		t.Fatalf("overlay does not reflect the write set: %v", ov)
	}

	after, err := st.Commit(ws)
	if err != nil {
		t.Fatal(err)
	}
	if after.Gen() != 2 {
		t.Fatalf("post-commit gen = %d, want 2", after.Gen())
	}
	// The pre-commit snapshot is immutable: it still shows the old data.
	if before.Relation("e").Contains(tup(3, 4)) || !before.Relation("e").Contains(tup(1, 2)) {
		t.Fatalf("old snapshot mutated by commit")
	}
	got := st.Head().Relation("e")
	if !got.Contains(tup(3, 4)) || got.Contains(tup(1, 2)) {
		t.Fatalf("head snapshot missing committed writes: %v", got)
	}
}

func TestStoreFirstCommitterWins(t *testing.T) {
	r := New("t", "x")
	r.Add(1)
	st := NewStore(r)

	a := st.Begin()
	b := st.Begin()
	if err := a.Insert("t", tup(2), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("t", tup(3), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(a); err != nil {
		t.Fatalf("first committer failed: %v", err)
	}
	if _, err := st.Commit(b); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer got %v, want ErrConflict", err)
	}
	// b's writes must not have leaked.
	if st.Head().Relation("t").Contains(tup(3)) {
		t.Fatalf("losing transaction's writes leaked into the head")
	}
}

func TestStoreDisjointWritersDoNotConflict(t *testing.T) {
	st := NewStore(New("a", "x"), New("b", "x"))
	wa, wb := st.Begin(), st.Begin()
	if err := wa.Insert("a", tup(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := wb.Insert("b", tup(2), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(wa); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(wb); err != nil {
		t.Fatalf("disjoint writer conflicted: %v", err)
	}
	h := st.Head()
	if !h.Relation("a").Contains(tup(1)) || !h.Relation("b").Contains(tup(2)) {
		t.Fatalf("lost a disjoint write")
	}
}

func TestStoreCreateAndConflictOnCreate(t *testing.T) {
	st := NewStore()
	a, b := st.Begin(), st.Begin()
	if err := a.Create("t", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert("t", tup(1, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Create("t", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(b); !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent CREATE of the same name got %v, want ErrConflict", err)
	}
	if got := st.Head().Relation("t").Arity(); got != 2 {
		t.Fatalf("surviving arity = %d, want 2 (first committer)", got)
	}
	// Creating an existing name inside a new write set fails eagerly.
	c := st.Begin()
	if err := c.Create("t", []string{"z"}); err == nil {
		t.Fatal("Create over an existing relation succeeded")
	}
}

func TestStoreDeleteCountsMultiplicity(t *testing.T) {
	r := New("t", "x")
	r.Add(1).Add(1).Add(2)
	st := NewStore(r)
	ws := st.Begin()
	n, err := ws.Delete("t", []Tuple{tup(1), tup(9)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d occurrences, want 2", n)
	}
	if _, err := st.Commit(ws); err != nil {
		t.Fatal(err)
	}
	h := st.Head().Relation("t")
	if h.Contains(tup(1)) || !h.Contains(tup(2)) {
		t.Fatalf("delete applied wrongly: %v", h)
	}
}

func TestStoreApplyUpsertsWithoutConflict(t *testing.T) {
	st := NewStore(New("t", "x"))
	ws := st.Begin()
	if err := ws.Insert("t", tup(1), 1); err != nil {
		t.Fatal(err)
	}
	repl := New("t", "x", "y")
	repl.Add(7, 8)
	st.Apply(repl) // Register path: unconditional replace
	if _, err := st.Commit(ws); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit over an Apply got %v, want ErrConflict", err)
	}
	if got := st.Head().Relation("t").Arity(); got != 2 {
		t.Fatalf("Apply did not replace the relation")
	}
}

func TestStoreEmptyCommitIsNoOp(t *testing.T) {
	st := NewStore(New("t", "x"))
	gen := st.Gen()
	snap, err := st.Commit(st.Begin())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen() != gen || st.Gen() != gen {
		t.Fatalf("empty commit bumped the generation")
	}
}

func TestStoreConcurrentCommitsRace(t *testing.T) {
	st := NewStore(New("t", "x"))
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for {
					ws := st.Begin()
					if err := ws.Insert("t", Tuple{value.Int(int64(w*1000 + i))}, 1); err != nil {
						t.Error(err)
						return
					}
					if _, err := st.Commit(ws); err == nil {
						break
					} else if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := st.Head().Relation("t").Card(); got != writers*50 {
		t.Fatalf("head card = %d, want %d", got, writers*50)
	}
}

func TestRelationRemoveKeys(t *testing.T) {
	r := New("t", "x", "y")
	r.Add(1, 1).Add(2, 2).Add(2, 2).Add(3, 3)
	// Warm a hash index so removal must invalidate it.
	found := 0
	r.Probe([]int{0}, []value.Value{value.Int(2)}, func(Tuple, int) bool { found++; return true })
	if found != 1 {
		t.Fatalf("probe found %d rows, want 1", found)
	}
	n := r.RemoveKeys([]Tuple{tup(2, 2), tup(2.0, 2)})
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if r.Contains(tup(2, 2)) || !r.Contains(tup(1, 1)) || !r.Contains(tup(3, 3)) {
		t.Fatalf("wrong rows survived: %v", r)
	}
	found = 0
	r.Probe([]int{0}, []value.Value{value.Int(2)}, func(Tuple, int) bool { found++; return true })
	if found != 0 {
		t.Fatalf("stale hash index: probe found %d rows after removal", found)
	}
	// The index is rebuilt consistently: re-inserting works.
	r.Add(2, 2)
	if r.Mult(tup(2, 2)) != 1 {
		t.Fatalf("re-insert after RemoveKeys broken")
	}
	if r.RemoveKeys([]Tuple{tup(4, 4), {value.Int(1)}}) != 0 {
		t.Fatalf("removing an absent key reported removals")
	}
}

// TestStoreDrop pins WriteSet.Drop: the relation vanishes from the
// overlay and (after commit) the head, a concurrent writer to the
// dropped relation loses first-committer-wins, and dropping an unknown
// relation errors.
func TestStoreDrop(t *testing.T) {
	r := New("e", "x")
	r.Add(1)
	st := NewStore(r, New("keep", "y"))

	ws := st.Begin()
	if err := ws.Drop("e"); err != nil {
		t.Fatal(err)
	}
	if ws.Relation("e") != nil {
		t.Fatal("dropped relation still visible through the overlay")
	}
	if _, ok := ws.Rels()["e"]; ok {
		t.Fatal("dropped relation still listed by Rels")
	}
	if err := ws.Insert("e", tup(2), 1); err == nil {
		t.Fatal("insert into dropped relation succeeded")
	}
	if err := ws.Drop("nope"); err == nil {
		t.Fatal("dropping an unknown relation succeeded")
	}

	// A writer that began before the drop commits and touches e must
	// conflict once the drop lands.
	loser := st.Begin()
	if err := loser.Insert("e", tup(9), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(ws); err != nil {
		t.Fatal(err)
	}
	if st.Head().Relation("e") != nil {
		t.Fatal("dropped relation survives at head")
	}
	if st.Head().Relation("keep") == nil {
		t.Fatal("unrelated relation was dropped too")
	}
	if _, err := st.Commit(loser); !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent write to dropped relation: err = %v, want ErrConflict", err)
	}
}

// TestStoreStats pins the commit-path counters: Gen doubles as the
// published-snapshot count, Commits counts successes, Conflicts counts
// first-committer-wins losses.
func TestStoreStats(t *testing.T) {
	st := NewStore(New("a", "x"))
	if s := st.Stats(); s.Gen != 1 || s.Commits != 0 || s.Conflicts != 0 {
		t.Fatalf("fresh stats = %+v", s)
	}
	w1 := st.Begin()
	w2 := st.Begin()
	if err := w1.Insert("a", tup(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := w2.Insert("a", tup(2), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(w2); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer won: %v", err)
	}
	s := st.Stats()
	if s.Gen != 2 || s.Commits != 1 || s.Conflicts != 1 {
		t.Fatalf("stats after one win + one loss = %+v", s)
	}
}
