package plan

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/value"
)

// scrubTimes replaces run-dependent timings with a fixed token so
// EXPLAIN ANALYZE output is golden-testable.
var timeRe = regexp.MustCompile(`time=[^ )\n]+`)

func scrubTimes(s string) string { return timeRe.ReplaceAllString(s, "time=X") }

// analyzedDB builds small populated relations with deterministic
// cardinalities for the analyze goldens.
func analyzedDB() map[string]*relation.Relation {
	r := relation.New("R", "A", "B")
	r.Add(1, 10)
	r.Add(2, 20)
	r.Add(3, 30)
	s := relation.New("S", "B", "C")
	s.Add(10, 100)
	s.Add(20, 200)
	s.Add(99, 999)
	e := relation.New("E", "x", "y")
	e.Add(1, 2)
	e.Add(2, 3)
	e.Add(3, 4)
	// D is a diamond, 1→{2,3}→4→5: a walk reaches 4 and 5 from 1 along
	// two paths each.
	d := relation.New("D", "x", "y")
	d.Add(1, 2)
	d.Add(1, 3)
	d.Add(2, 4)
	d.Add(3, 4)
	d.Add(4, 5)
	return map[string]*relation.Relation{"R": r, "S": s, "E": e, "D": d}
}

// runAnalyzed compiles src, drains one traced execution, and returns the
// timing-scrubbed EXPLAIN ANALYZE rendering.
func runAnalyzed(t *testing.T, src string) string {
	t.Helper()
	db := analyzedDB()
	p, err := Compile(sql.MustParse(src), db)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	tr := trace.New()
	seq, errFn := p.StreamOn(db, nil, nil, tr)
	for range seq {
	}
	if err := errFn(); err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return scrubTimes(p.ExplainAnalyze(tr))
}

// TestGoldenAnalyze pins the EXPLAIN ANALYZE renderings: per-operator
// actual rows, hash-join build/probe counters, and per-round fixpoint
// deltas for a recursive CTE.
func TestGoldenAnalyze(t *testing.T) {
	cases := []struct{ src, want string }{
		{
			// Hash join: 3 probe rows, 2 hits, 1 miss against S's index,
			// which builds nothing; Scan S counts the 2 rows probes read.
			"select r.A, s.C from R r, S s where r.B = s.B",
			`Project [A, C] (rows=2 time=X)
  HashJoin INNER (r.B = s.B) index(S) (rows=2 hits=2 misses=1 time=X)
    Scan R as r (rows=3 time=X)
    Scan S as s (rows=2 time=X)
`,
		},
		{
			// IN: each row probes S's index on the membership equality;
			// the element scope, uncorrelated, runs once, for the row that
			// misses.
			"select R.A from R where R.B in (select S.B from S)",
			`Project [A] (rows=2 time=X)
  Filter (IN (R.B → S.B)) (rows=2 time=X)
    Scan R (rows=3 time=X)
    SemiProbe IN (R.B → S.B) by(R.B) (probes=3 matches=2)
      HashJoin INNER (R.B = S.B) index(S) (rows=2 hits=2 misses=1 time=X)
        Outer
        Scan S (rows=2 time=X)
    UnknownProbe S.B static (probes=1 matches=1)
      Scan S (rows=3 time=X)
`,
		},
		{
			// Recursive CTE over the chain 1→2→3→4: base 3 edges, then
			// deltas 2, 1, and the empty fixpoint round. Every round's
			// delta probes E's index, built once for E and reused across
			// rounds, and CteScan Δtc accumulates every round's delta.
			"with recursive tc(x, y) as (select E.x, E.y from E union select tc.x, E.y from tc, E where tc.y = E.x) select tc.x, tc.y from tc",
			`With
  RecursiveCTE tc [x, y] UNION (rounds=4 deltas=[3 2 1 0])
    Base:
      Project [x, y] (rows=3 time=X)
        Scan E (rows=3 time=X)
    Step (Δtc per round):
      Project [x, y] (rows=3 time=X)
        HashJoin INNER (tc.y = E.x) index(E) (rows=3 hits=3 misses=3 time=X)
          CteScan Δtc (rows=6 time=X)
          Scan E (rows=3 time=X)
  Body:
    Project [x, y] (rows=6 time=X)
      CteScan tc (rows=6 time=X)
`,
		},
		{
			// UNION ALL over the diamond keeps one row per path: base 5
			// edges, then (1,4) twice, (2,5) and (3,5), then (1,5) twice,
			// and the empty round. A round's delta counts multiplicities.
			"with recursive w(x, y) as (select D.x, D.y from D union all select w.x, D.y from w, D where w.y = D.x) select w.x, w.y from w",
			`With
  RecursiveCTE w [x, y] UNION ALL (rounds=4 deltas=[5 4 2 0])
    Base:
      Project [x, y] (rows=5 time=X)
        Scan D (rows=5 time=X)
    Step (Δw per round):
      Project [x, y] (rows=5 time=X)
        HashJoin INNER (w.y = D.x) index(D) (rows=5 hits=5 misses=4 time=X)
          CteScan Δw (rows=9 time=X)
          Scan D (rows=5 time=X)
  Body:
    Project [x, y] (rows=9 time=X)
      CteScan w (rows=9 time=X)
`,
		},
	}
	for _, c := range cases {
		if got := runAnalyzed(t, c.src); got != c.want {
			t.Errorf("analyze mismatch for %q\ngot:\n%s\nwant:\n%s", c.src, got, c.want)
		}
	}
}

// TestAnalyzeNeverExecuted pins the marker for operators an execution
// never reached: a point probe that misses leaves the join's build side
// unvisited only when the outer side short-circuits; here an empty probe
// side ends the stream before the filter input runs.
func TestAnalyzeNeverExecuted(t *testing.T) {
	db := analyzedDB()
	p, err := Compile(sql.MustParse("select R.A from R where R.A = 77"), db)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	seq, errFn := p.StreamOn(db, nil, nil, tr)
	for range seq {
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	got := scrubTimes(p.ExplainAnalyze(tr))
	want := "Project [A] (rows=0 time=X)\n  Scan R probe(A=77) (rows=0 time=X)\n"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	// Untraced rendering of the same plan is the plain Explain.
	if p.ExplainAnalyze(nil) != p.Explain() {
		t.Error("ExplainAnalyze(nil) diverges from Explain")
	}
}

// TestTracedMatchesUntraced pins the zero-interference contract over the
// golden-plan queries: a traced execution returns byte-identical results
// to an untraced one.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, src := range []string{
		"select r.A, s.C from R r, S s where r.B = s.B",
		"select R.A from R where R.B in (select S.B from S)",
		"with recursive tc(x, y) as (select E.x, E.y from E union select tc.x, E.y from tc, E where tc.y = E.x) select tc.x, tc.y from tc",
	} {
		db := analyzedDB()
		p, err := Compile(sql.MustParse(src), db)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.ExecuteWith(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced := relation.New("result", p.Attrs()...)
		seq, errFn := p.StreamOn(db, nil, nil, trace.New())
		for tup, m := range seq {
			traced.InsertMult(tup, m)
		}
		if err := errFn(); err != nil {
			t.Fatal(err)
		}
		if !plain.EqualBag(traced) {
			t.Errorf("%q: traced result diverges:\nplain\n%s\ntraced\n%s", src, plain, traced)
		}
		_ = fmt.Sprint(traced)
	}
}

// TestUntracedStreamPaysNothingForTracing pins the "disabled trace path
// is free" contract with a number that repeats exactly (allocations do;
// ns/op on a shared box do not): a prepared point query drained through
// StreamOn with a nil trace allocates no more than it did when this was
// written, and the same drain with a trace allocates more, so the
// comparison does exercise tracing. If the planner changes what a point
// query allocates, update the ceiling; if tracing code moved it, that is
// the regression this test exists for.
func TestUntracedStreamPaysNothingForTracing(t *testing.T) {
	const untracedCeiling = 18
	r := relation.New("R", "A", "B")
	for i := 0; i < 1000; i++ {
		r.Add(i, i%7)
	}
	rels := map[string]*relation.Relation{"R": r}
	p, err := CompileSchema(sql.MustParse("select R.A, R.B from R where R.A = $1"), rels)
	if err != nil {
		t.Fatal(err)
	}
	params := []value.Value{value.Int(500)}
	drain := func(tr *trace.Trace) {
		seq, errFn := p.StreamOn(rels, params, nil, tr)
		rows := 0
		for range seq {
			rows++
		}
		if err := errFn(); err != nil || rows != 1 {
			t.Fatalf("point query: %d rows, err %v", rows, err)
		}
	}
	drain(nil) // builds R's lazy hash index outside the measurement
	untraced := testing.AllocsPerRun(100, func() { drain(nil) })
	traced := testing.AllocsPerRun(100, func() { drain(trace.New()) })
	if untraced > untracedCeiling {
		t.Errorf("untraced point query allocates %v objects per run, ceiling %d", untraced, untracedCeiling)
	}
	if traced <= untraced {
		t.Errorf("traced run allocates %v objects, untraced %v: the traced side did not trace", traced, untraced)
	}
}

// TestJoinAllocatesNothingPerRow pins that a join on a stored relation
// allocates nothing per build or probe row: arcbench's join1000 shape,
// drained through StreamOn, allocates as often joining 4 000 rows a side
// as joining 1 000. The join probes J2's index, which outlives the
// execution, and writes every output row into one tuple, as the
// projection above it does.
func TestJoinAllocatesNothingPerRow(t *testing.T) {
	allocs := func(n int) float64 {
		j1, j2 := relation.New("J1", "X", "V"), relation.New("J2", "Y", "W")
		for i := 0; i < n; i++ {
			j1.Add(i, 1000+i)
			j2.Add(i*7%n, 2000+i) // a permutation of 0..n-1, n prime to 7
		}
		rels := map[string]*relation.Relation{"J1": j1, "J2": j2}
		p, err := CompileSchema(sql.MustParse("select J1.V, J2.W from J1, J2 where J1.X = J2.Y"), rels)
		if err != nil {
			t.Fatal(err)
		}
		drain := func() {
			seq, errFn := p.StreamOn(rels, nil, nil, nil)
			rows := 0
			for range seq {
				rows++
			}
			if err := errFn(); err != nil || rows != n {
				t.Fatalf("join: %d rows, err %v; want %d", rows, err, n)
			}
		}
		drain() // builds J2's index outside the measurement
		return testing.AllocsPerRun(20, drain)
	}
	small, big := allocs(1000), allocs(4000)
	t.Logf("%.0f allocations joining 1 000 rows, %.0f joining 4 000", small, big)
	if big > small {
		t.Errorf("the join allocates %.0f times over 4 000 rows and %.0f over 1 000: it allocates per row", big, small)
	}
}

// TestProbeAllocatesNothingPerRow pins that an existence probe sets its
// inner scope up once per execution and runs it again for a tested row
// without allocating — a keyed NOT EXISTS, an EXISTS correlated through
// an inequality (the tested row joined to S, filtered) and a NOT IN keyed
// on computed sides — and that its answers, kept by the values of the
// columns it reads, allocate nothing per row either: over 4 000 outer
// rows as often as over 1 000, both when every row has its own values
// and the answers are kept aside (each test a run of the stream), and
// when the rows repeat 100 values (most tests an answer kept).
func TestProbeAllocatesNothingPerRow(t *testing.T) {
	for _, src := range []string{
		"select R.A from R where not exists (select 1 from S where S.B = R.A and S.C = 1)",
		"select R.A from R where exists (select 1 from S where S.B < R.A and S.C = 1)",
		"select R.A from R where R.A + 0 not in (select S.B + 0 from S where S.C = 1)",
	} {
		for _, keep := range []bool{false, true} {
			allocs := func(n int) float64 {
				r, s := relation.New("R", "A", "I"), relation.New("S", "B", "C")
				for i := 0; i < n; i++ {
					if keep {
						r.Add(i%100, i)
					} else {
						r.Add(i, i)
					}
				}
				for i := 0; i < 50; i++ {
					s.Add(i*7, i%2)
				}
				rels := map[string]*relation.Relation{"R": r, "S": s}
				p, err := CompileSchema(sql.MustParse(src), rels)
				if err != nil {
					t.Fatal(err)
				}
				for _, pr := range p.root.(*projectNode).input.(*filterNode).probes {
					pr.keyed = pr.keyed && keep
				}
				drain := func() {
					seq, errFn := p.StreamOn(rels, nil, nil, nil)
					for range seq {
					}
					if err := errFn(); err != nil {
						t.Fatal(err)
					}
				}
				drain()
				return testing.AllocsPerRun(20, drain)
			}
			small, big := allocs(1000), allocs(4000)
			if big > small {
				t.Errorf("%s (answers kept: %v): %.0f allocations over 4 000 outer rows, %.0f over 1 000: the probe allocates per row", src, keep, big, small)
			}
		}
	}
}
