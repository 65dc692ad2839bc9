package fixpoint

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/value"
)

// chain builds P = {(0,1), (1,2), ...,(n-1,n)}.
func chain(n int) *relation.Relation {
	p := relation.New("P", "s", "t")
	for i := 0; i < n; i++ {
		p.Add(i, i+1)
	}
	return p
}

// tcRules builds the two TC rules over edge relation p:
// A(x,y) :- P(x,y).  A(x,y) :- P(x,z), A(z,y).
func tcRules(p *relation.Relation, totals map[string]*relation.Relation) []Rule {
	return []Rule{
		{
			Target: "A",
			Kind:   Seed,
			Eval: func(_ int, _ *relation.Relation, emit Emit) error {
				for t := range exec.Scan(p) {
					if err := emit(t, 1); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Target: "A",
			Kind:   Delta,
			Occs:   []string{"A"},
			Eval: func(occ int, delta *relation.Relation, emit Emit) error {
				a := totals["A"]
				if occ == 0 {
					a = delta
				}
				for pt := range exec.Scan(p) {
					var failure error
					a.Probe([]int{0}, []value.Value{pt[1]}, func(at relation.Tuple, _ int) bool {
						if err := emit(relation.Tuple{pt[0], at[1]}, 1); err != nil {
							failure = err
							return false
						}
						return true
					})
					if failure != nil {
						return failure
					}
				}
				return nil
			},
		},
	}
}

func TestRunTransitiveClosure(t *testing.T) {
	const n = 20
	totals := map[string]*relation.Relation{"A": relation.New("A", "s", "t")}
	if err := Run(totals, tcRules(chain(n), totals), Options{Name: "tc"}); err != nil {
		t.Fatal(err)
	}
	if got, want := totals["A"].Distinct(), n*(n+1)/2; got != want {
		t.Fatalf("TC over chain(%d): %d tuples, want %d", n, got, want)
	}
}

// tightCap lowers MaxIterations to n for the rest of the test.
func tightCap(t *testing.T, n int) {
	saved := MaxIterations
	MaxIterations = n
	t.Cleanup(func() { MaxIterations = saved })
}

func TestRunIterationCap(t *testing.T) {
	tightCap(t, 5)
	totals := map[string]*relation.Relation{"G": relation.New("G", "x")}
	round := 0
	rules := []Rule{{
		Target: "G",
		Kind:   Naive,
		Eval: func(_ int, _ *relation.Relation, emit Emit) error {
			round++
			return emit(relation.Tuple{value.Int(int64(round))}, 1)
		},
	}}
	err := Run(totals, rules, Options{Name: "diverge"})
	if !errors.Is(err, ErrIterationCap) {
		t.Fatalf("diverging fixpoint: got %v, want ErrIterationCap", err)
	}
	if want := "fixpoint iteration cap exceeded: diverge did not converge within 5 iterations"; err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}

// TestRunRejectsWrongArity: a rule that emits a tuple of the wrong arity
// fails the fixpoint with an error naming it, under set and bag rounds,
// instead of panicking inside the total.
func TestRunRejectsWrongArity(t *testing.T) {
	for _, bag := range []bool{false, true} {
		totals := map[string]*relation.Relation{"A": relation.New("A", "s", "t")}
		err := Run(totals, []Rule{{
			Target: "A",
			Kind:   Seed,
			Eval: func(_ int, _ *relation.Relation, emit Emit) error {
				return emit(relation.Tuple{value.Int(1)}, 1)
			},
		}}, Options{Name: "tc", Bag: bag})
		if err == nil || err.Error() != "fixpoint tc: A term arity 1, want 2" {
			t.Fatalf("bag %v: got %v, want the fixpoint's arity error", bag, err)
		}
		if totals["A"].Distinct() != 0 {
			t.Fatalf("bag %v: the total took %d tuples", bag, totals["A"].Distinct())
		}
	}
}

func TestRunUnknownTarget(t *testing.T) {
	err := Run(map[string]*relation.Relation{}, []Rule{{Target: "Q"}}, Options{Name: "bad"})
	if err == nil {
		t.Fatal("rule with unknown target must fail")
	}
}

// tcTerms are the base and step terms of WITH RECURSIVE transitive
// closure over edges.
func tcTerms(edges *relation.Relation) (base func(Emit) error, step func(*relation.Relation, Emit) error) {
	base = func(emit Emit) error {
		for t, m := range exec.Scan(edges) {
			if err := emit(t, m); err != nil {
				return err
			}
		}
		return nil
	}
	step = func(delta *relation.Relation, emit Emit) error {
		for dt, dm := range exec.Scan(delta) {
			var failure error
			edges.Probe([]int{0}, []value.Value{dt[1]}, func(et relation.Tuple, em int) bool {
				if err := emit(relation.Tuple{dt[0], et[1]}, dm*em); err != nil {
					failure = err
					return false
				}
				return true
			})
			if failure != nil {
				return failure
			}
		}
		return nil
	}
	return base, step
}

// cteRules are a recursive CTE's base and step as the planner runs them
// on Run: a Seed rule, and a Delta rule with one occurrence whose naive
// variant derives nothing, since the step reads only the working table.
func cteRules(name string, base func(Emit) error, step func(*relation.Relation, Emit) error) []Rule {
	return []Rule{
		{Target: name, Kind: Seed, Eval: func(_ int, _ *relation.Relation, emit Emit) error { return base(emit) }},
		{Target: name, Kind: Delta, Occs: []string{name}, Eval: func(occ int, delta *relation.Relation, emit Emit) error {
			if occ < 0 {
				return nil
			}
			return step(delta, emit)
		}},
	}
}

// cteTC runs TC over edges as a recursive CTE (cteRules) — under UNION
// with set rounds, under UNION ALL with bag rounds — reporting its
// rounds to onRound.
func cteTC(edges *relation.Relation, bag bool, onRound func(int, time.Duration)) (*relation.Relation, error) {
	base, step := tcTerms(edges)
	totals := map[string]*relation.Relation{"tc": relation.New("tc", "s", "t")}
	err := Run(totals, cteRules("tc", base, step), Options{Name: "tc", Bag: bag, OnRound: onRound})
	return totals["tc"], err
}

func TestCTEUnionOverCycle(t *testing.T) {
	edges := relation.New("E", "s", "t").Add(0, 1).Add(1, 0)
	out, err := cteTC(edges, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reachability over the 2-cycle: all four (s,t) pairs.
	if out.Distinct() != 4 {
		t.Fatalf("UNION TC over 2-cycle: %d tuples, want 4", out.Distinct())
	}
	if out.Card() != 4 {
		t.Fatalf("UNION must deduplicate: card %d, want 4", out.Card())
	}
}

// TestCTEUnionDerivesLikeRun: under UNION a recursive CTE runs on Run
// (cteRules) — the result takes a row at once, and the working table is
// the window onto what a round added — and the result's order, its
// multiplicities and every round's working table are those of the
// round-at-a-time loop of the SQL standard, which deduplicates each round
// against the result and itself and then moves the round into the
// result. The edges repeat, meet and close a cycle, so rounds derive
// duplicates of their own rows and of older ones.
func TestCTEUnionDerivesLikeRun(t *testing.T) {
	edges := relation.New("E", "s", "t").Add(0, 1).Add(0, 2).Add(1, 3).Add(2, 3).Add(3, 0).Add(3, 4).Add(0, 1)
	var rounds []int
	got, err := cteTC(edges, false, func(delta int, _ time.Duration) { rounds = append(rounds, delta) })
	if err != nil {
		t.Fatal(err)
	}
	base, step := tcTerms(edges)
	// The standard's loop, over the same terms.
	want := relation.New("tc", "s", "t")
	var wantRounds []int
	collect := func(next *relation.Relation) Emit {
		return func(t relation.Tuple, _ int) error {
			if !want.Contains(t) && !next.Contains(t) {
				next.Insert(t)
			}
			return nil
		}
	}
	work := relation.New("tc", "s", "t")
	if err := base(collect(work)); err != nil {
		t.Fatal(err)
	}
	for work.Distinct() > 0 {
		work.Each(func(t relation.Tuple, m int) { want.InsertMult(t, m) })
		wantRounds = append(wantRounds, work.Card())
		next := relation.New("tc", "s", "t")
		if err := step(work, collect(next)); err != nil {
			t.Fatal(err)
		}
		work = next
	}
	wantRounds = append(wantRounds, 0)
	if got.String() != want.String() || fmt.Sprint(got.Tuples()) != fmt.Sprint(want.Tuples()) {
		t.Errorf("result:\n%s%v\nwant:\n%s%v", got, got.Tuples(), want, want.Tuples())
	}
	if fmt.Sprint(rounds) != fmt.Sprint(wantRounds) {
		t.Errorf("working tables of %v rows, want %v", rounds, wantRounds)
	}
}

func TestCTEUnionAllCycleTripsCap(t *testing.T) {
	tightCap(t, 50)
	edges := relation.New("E", "s", "t").Add(0, 1).Add(1, 0)
	_, err := cteTC(edges, true, nil)
	if !errors.Is(err, ErrIterationCap) {
		t.Fatalf("UNION ALL over a cycle: got %v, want ErrIterationCap", err)
	}
}

func TestCTEUnionAllBoundedKeepsMultiplicities(t *testing.T) {
	// Acyclic chain: UNION ALL terminates and keeps one row per distinct
	// derivation path (here every pair has exactly one path).
	out, err := cteTC(chain(4), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Card(), 4*5/2; got != want {
		t.Fatalf("UNION ALL TC over chain(4): card %d, want %d", got, want)
	}
	// A diamond: two paths from 0 to 3, so (0,3) twice.
	out, err = cteTC(relation.New("E", "s", "t").Add(0, 1).Add(0, 2).Add(1, 3).Add(2, 3), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() != 6 || out.Mult(relation.Tuple{value.Int(0), value.Int(3)}) != 2 {
		t.Fatalf("UNION ALL TC over a diamond: %v", out.Tuples())
	}
}

// TestCTEUnionAllIsTheWorkingTableLoop: under UNION ALL a recursive CTE
// runs on Run's bag rounds, and the result's order, its multiplicities
// and every round's working table are those of the SQL standard's loop,
// which moves each round's output, multiplicities and all, into the
// result and makes it the next working table. The edges repeat and meet,
// so rows carry multiplicities above 1 and rounds derive rows the result
// already holds.
func TestCTEUnionAllIsTheWorkingTableLoop(t *testing.T) {
	edges := relation.New("E", "s", "t").Add(0, 1).Add(0, 2).Add(1, 3).Add(2, 3).Add(3, 4).Add(0, 1).Add(1, 4)
	var rounds []int
	got, err := cteTC(edges, true, func(delta int, _ time.Duration) { rounds = append(rounds, delta) })
	if err != nil {
		t.Fatal(err)
	}
	base, step := tcTerms(edges)
	want := relation.New("tc", "s", "t")
	var wantRounds []int
	collect := func(next *relation.Relation) Emit {
		return func(t relation.Tuple, m int) error {
			next.InsertMult(t, m)
			return nil
		}
	}
	work := relation.New("tc", "s", "t")
	if err := base(collect(work)); err != nil {
		t.Fatal(err)
	}
	for work.Distinct() > 0 {
		work.Each(func(t relation.Tuple, m int) { want.InsertMult(t, m) })
		wantRounds = append(wantRounds, work.Card())
		next := relation.New("tc", "s", "t")
		if err := step(work, collect(next)); err != nil {
			t.Fatal(err)
		}
		work = next
	}
	wantRounds = append(wantRounds, 0)
	if !got.EqualBag(want) || fmt.Sprint(got.Tuples()) != fmt.Sprint(want.Tuples()) {
		t.Errorf("result:\n%s%v\nwant:\n%s%v", got, got.Tuples(), want, want.Tuples())
	}
	if got.Card() == got.Distinct() {
		t.Errorf("no row repeats in %v", got.Tuples())
	}
	if fmt.Sprint(rounds) != fmt.Sprint(wantRounds) {
		t.Errorf("working tables of %v rows, want %v", rounds, wantRounds)
	}
}

func TestStratify(t *testing.T) {
	derived := map[string]bool{"A": true, "B": true}
	strata, n, err := Stratify(derived, []Dep{
		{Head: "A", Dep: "E"},               // base edge: ignored
		{Head: "A", Dep: "A"},               // positive self-recursion
		{Head: "B", Dep: "A", Strict: true}, // B negates A
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || strata["A"] != 0 || strata["B"] != 1 {
		t.Fatalf("strata = %v (n=%d), want A:0 B:1 (n=2)", strata, n)
	}
	if _, _, err := Stratify(derived, []Dep{
		{Head: "A", Dep: "B"},
		{Head: "B", Dep: "A", Strict: true},
	}); err == nil {
		t.Fatal("strict cycle must not stratify")
	}
}

// extendPaths emits (x, y) for each tuple (x, z) of from and edge (z, y):
// from is scanned and edges probed, as a compiled delta-driven rule runs,
// and every tuple goes out in one reused buffer, so the rule itself
// allocates a few objects per call and nothing per tuple.
func extendPaths(from, edges *relation.Relation, emit Emit) error {
	buf, key, pr := make(relation.Tuple, 2), make([]value.Value, 1), edges.Prober([]int{0})
	var ft relation.Tuple
	var failure error
	hit := func(et relation.Tuple, _ int) bool {
		buf[0], buf[1] = ft[0], et[1]
		failure = emit(buf, 1)
		return failure == nil
	}
	from.EachWhile(func(t relation.Tuple, _ int) bool {
		ft, key[0] = t, t[1]
		pr.Probe(key, hit)
		return failure == nil
	})
	return failure
}

// TestRecursionAllocations bounds the heap recursion allocates per
// derived tuple: transitive closure over a 200-node chain, 20 100 tuples
// in 200 rounds, through Run with an ARC rule's variants, with a UNION
// CTE's (cteRules) and with a UNION ALL CTE's bag rounds. What a set
// fixpoint must pay is the total's rows, its tuple index and one copy of
// each tuple; a round's delta is a window onto the total's rows and adds
// a header per round, nothing per tuple. Measured on amd64 with Go 1.24:
// 277 B per tuple either way; a round that stored its new tuples a
// second time, in a row array grown from empty, cost 372. A bag round
// derives into a relation of its own, with its own tuple index, whose
// rows then move into the total: 440 B per tuple.
func TestRecursionAllocations(t *testing.T) {
	const n, runs = 200, 3
	const tuples = n * (n + 1) / 2
	edges := chain(n)
	seed := func(emit Emit) error {
		var failure error
		edges.EachWhile(func(et relation.Tuple, _ int) bool {
			failure = emit(et, 1)
			return failure == nil
		})
		return failure
	}
	cte := func(bag bool) func() (*relation.Relation, error) {
		return func() (*relation.Relation, error) {
			totals := map[string]*relation.Relation{"tc": relation.New("tc", "s", "t")}
			err := Run(totals, cteRules("tc", seed,
				func(delta *relation.Relation, emit Emit) error { return extendPaths(delta, edges, emit) },
			), Options{Name: "tc", Bag: bag})
			return totals["tc"], err
		}
	}
	for _, c := range []struct {
		name  string
		bound float64 // bytes per derived tuple
		run   func() (*relation.Relation, error)
	}{
		{"Run", 320, func() (*relation.Relation, error) {
			totals := map[string]*relation.Relation{"A": relation.New("A", "s", "t")}
			err := Run(totals, []Rule{
				{Target: "A", Kind: Seed, Eval: func(_ int, _ *relation.Relation, emit Emit) error { return seed(emit) }},
				{Target: "A", Kind: Delta, Occs: []string{"A"}, Eval: func(occ int, delta *relation.Relation, emit Emit) error {
					if occ < 0 {
						delta = totals["A"]
					}
					return extendPaths(delta, edges, emit)
				}},
			}, Options{Name: "tc"})
			return totals["A"], err
		}},
		{"Run, a UNION CTE's rules", 320, cte(false)},
		{"UNION ALL rounds", 480, cte(true)},
	} {
		// The first run builds the edges' index, which later runs share.
		if _, err := c.run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			out, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Distinct() != tuples || out.Card() != tuples {
				t.Fatalf("%s: %d tuples, card %d, want %d", c.name, out.Distinct(), out.Card(), tuples)
			}
		}
		runtime.ReadMemStats(&after)
		perTuple := float64(after.TotalAlloc-before.TotalAlloc) / (runs * tuples)
		t.Logf("%s: %.1f B per derived tuple", c.name, perTuple)
		if perTuple > c.bound {
			t.Errorf("%s allocates %.0f B per derived tuple, want at most %.0f", c.name, perTuple, c.bound)
		}
	}
}
