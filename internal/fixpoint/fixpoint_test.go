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
					if err := emit(t); err != nil {
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
						if err := emit(relation.Tuple{pt[0], at[1]}); err != nil {
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

func TestRunIterationCap(t *testing.T) {
	totals := map[string]*relation.Relation{"G": relation.New("G", "x")}
	round := 0
	rules := []Rule{{
		Target: "G",
		Kind:   Naive,
		Eval: func(_ int, _ *relation.Relation, emit Emit) error {
			round++
			return emit(relation.Tuple{value.Int(int64(round))})
		},
	}}
	err := Run(totals, rules, Options{Name: "diverge", MaxIterations: 5})
	if !errors.Is(err, ErrIterationCap) {
		t.Fatalf("diverging fixpoint: got %v, want ErrIterationCap", err)
	}
}

// TestRunRejectsWrongArity: a rule that emits a tuple of the wrong arity
// fails the fixpoint with an error naming it, as CTE.Run fails a term of
// the wrong arity, instead of panicking inside the total.
func TestRunRejectsWrongArity(t *testing.T) {
	totals := map[string]*relation.Relation{"A": relation.New("A", "s", "t")}
	err := Run(totals, []Rule{{
		Target: "A",
		Kind:   Seed,
		Eval: func(_ int, _ *relation.Relation, emit Emit) error {
			return emit(relation.Tuple{value.Int(1)})
		},
	}}, Options{Name: "tc"})
	if err == nil || err.Error() != "fixpoint tc: A term arity 1, want 2" {
		t.Fatalf("got %v, want the fixpoint's arity error", err)
	}
	if totals["A"].Distinct() != 0 {
		t.Fatalf("the total took %d tuples", totals["A"].Distinct())
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
func tcTerms(edges *relation.Relation) (base func(EmitMult) error, step func(*relation.Relation, EmitMult) error) {
	base = func(emit EmitMult) error {
		for t, m := range exec.Scan(edges) {
			if err := emit(t, m); err != nil {
				return err
			}
		}
		return nil
	}
	step = func(delta *relation.Relation, emit EmitMult) error {
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

// cteTC builds the UNION ALL working-table loop for TC over edges.
func cteTC(edges *relation.Relation, maxIter int) *CTE {
	base, step := tcTerms(edges)
	return &CTE{Name: "tc", Attrs: []string{"s", "t"}, Base: base, Step: step, MaxIterations: maxIter}
}

// unionRules are a recursive CTE's base and step under UNION as the
// planner runs them on Run: a Seed rule, and a Delta rule with one
// occurrence whose naive variant derives nothing, since the step reads
// only the working table.
func unionRules(name string, base func(EmitMult) error, step func(*relation.Relation, EmitMult) error) []Rule {
	set := func(emit Emit) EmitMult {
		return func(t relation.Tuple, _ int) error { return emit(t) }
	}
	return []Rule{
		{Target: name, Kind: Seed, Eval: func(_ int, _ *relation.Relation, emit Emit) error { return base(set(emit)) }},
		{Target: name, Kind: Delta, Occs: []string{name}, Eval: func(occ int, delta *relation.Relation, emit Emit) error {
			if occ < 0 {
				return nil
			}
			return step(delta, set(emit))
		}},
	}
}

// unionTC runs TC over edges under UNION (unionRules), reporting its
// rounds to onRound.
func unionTC(edges *relation.Relation, onRound func(int, time.Duration)) (*relation.Relation, error) {
	base, step := tcTerms(edges)
	totals := map[string]*relation.Relation{"tc": relation.New("tc", "s", "t")}
	err := Run(totals, unionRules("tc", base, step), Options{Name: "tc", OnRound: onRound})
	return totals["tc"], err
}

func TestCTEUnionOverCycle(t *testing.T) {
	edges := relation.New("E", "s", "t").Add(0, 1).Add(1, 0)
	out, err := unionTC(edges, nil)
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
// (unionRules) — the result takes a row at once, and the working table is
// the window onto what a round added — and the result's order, its
// multiplicities and every round's working table are those of the
// round-at-a-time loop of the SQL standard, which deduplicates each round
// against the result and itself and then moves the round into the
// result. The edges repeat, meet and close a cycle, so rounds derive
// duplicates of their own rows and of older ones.
func TestCTEUnionDerivesLikeRun(t *testing.T) {
	edges := relation.New("E", "s", "t").Add(0, 1).Add(0, 2).Add(1, 3).Add(2, 3).Add(3, 0).Add(3, 4).Add(0, 1)
	var rounds []int
	got, err := unionTC(edges, func(delta int, _ time.Duration) { rounds = append(rounds, delta) })
	if err != nil {
		t.Fatal(err)
	}
	base, step := tcTerms(edges)
	// The standard's loop, over the same terms.
	want := relation.New("tc", "s", "t")
	var wantRounds []int
	collect := func(next *relation.Relation) EmitMult {
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
	edges := relation.New("E", "s", "t").Add(0, 1).Add(1, 0)
	_, err := cteTC(edges, 50).Run()
	if !errors.Is(err, ErrIterationCap) {
		t.Fatalf("UNION ALL over a cycle: got %v, want ErrIterationCap", err)
	}
}

func TestCTEUnionAllBoundedKeepsMultiplicities(t *testing.T) {
	// Acyclic chain: UNION ALL terminates and keeps one row per distinct
	// derivation path (here every pair has exactly one path).
	out, err := cteTC(chain(4), 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Card(), 4*5/2; got != want {
		t.Fatalf("UNION ALL TC over chain(4): card %d, want %d", got, want)
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
func extendPaths(from, edges *relation.Relation, emit func(relation.Tuple) error) error {
	buf, key, pr := make(relation.Tuple, 2), make([]value.Value, 1), edges.Prober([]int{0})
	var ft relation.Tuple
	var failure error
	hit := func(et relation.Tuple, _ int) bool {
		buf[0], buf[1] = ft[0], et[1]
		failure = emit(buf)
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
// in 200 rounds, through Run with an ARC rule's variants and with a UNION
// CTE's (unionRules). What a fixpoint must pay is the total's rows, its
// tuple index and one copy of each tuple; a round's delta is a window
// onto the total's rows and adds a header per round, nothing per tuple.
// Measured on amd64 with Go 1.24: 277 B per tuple either way; a round
// that stored its new tuples a second time, in a row array grown from
// empty, cost 372.
func TestRecursionAllocations(t *testing.T) {
	const bound = 320 // bytes per derived tuple
	const n, runs = 200, 3
	const tuples = n * (n + 1) / 2
	edges := chain(n)
	seed := func(emit func(relation.Tuple) error) error {
		var failure error
		edges.EachWhile(func(et relation.Tuple, _ int) bool {
			failure = emit(et)
			return failure == nil
		})
		return failure
	}
	once := func(emit EmitMult) func(relation.Tuple) error {
		return func(t relation.Tuple) error { return emit(t, 1) }
	}
	for _, c := range []struct {
		name string
		run  func() (*relation.Relation, error)
	}{
		{"Run", func() (*relation.Relation, error) {
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
		{"Run, a UNION CTE's rules", func() (*relation.Relation, error) {
			totals := map[string]*relation.Relation{"tc": relation.New("tc", "s", "t")}
			err := Run(totals, unionRules("tc",
				func(emit EmitMult) error { return seed(once(emit)) },
				func(delta *relation.Relation, emit EmitMult) error { return extendPaths(delta, edges, once(emit)) },
			), Options{Name: "tc"})
			return totals["tc"], err
		}},
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
			if out.Distinct() != tuples {
				t.Fatalf("%s: %d tuples, want %d", c.name, out.Distinct(), tuples)
			}
		}
		runtime.ReadMemStats(&after)
		perTuple := float64(after.TotalAlloc-before.TotalAlloc) / (runs * tuples)
		t.Logf("%s: %.1f B per derived tuple", c.name, perTuple)
		if perTuple > bound {
			t.Errorf("%s allocates %.0f B per derived tuple, want at most %d", c.name, perTuple, bound)
		}
	}
}
