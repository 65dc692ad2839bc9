package plan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

func testDB() map[string]*relation.Relation {
	return map[string]*relation.Relation{
		"R": relation.New("R", "A", "B"),
		"S": relation.New("S", "B", "C"),
		"T": relation.New("T", "A", "C"),
	}
}

// TestGoldenPlans pins the plan shapes of representative queries: join
// chains with probe pushdown, IN/EXISTS existence probes, grouped
// aggregates with HAVING, LEFT/FULL outer joins, and derived tables.
func TestGoldenPlans(t *testing.T) {
	cases := []struct{ src, want string }{
		{
			"select r.A, s.C from R r, S s, T t where r.B = s.B and s.C = t.C and t.A = 3",
			`Project [A, C]
  HashJoin INNER (s.C = t.C) index(T)
    HashJoin INNER (r.B = s.B) index(S)
      Scan R as r
      Scan S as s
    Scan T as t probe(A=3)
`,
		},
		{
			"select R.A from R where R.B in (select S.B from S where S.C = R.A)",
			`Project [A]
  Filter (IN (R.B → S.B))
    Scan R
    SemiProbe IN (R.B → S.B) by(R.A, R.B)
      HashJoin INNER (S.C = R.A, R.B = S.B) index(S)
        Outer
        Scan S
    UnknownProbe S.B by(R.A)
      HashJoin INNER (S.C = R.A) index(S)
        Outer
        Scan S
`,
		},
		{
			"select R.A from R where not exists (select 1 from S where S.B = R.B and S.C < 2)",
			`Project [A]
  Filter (NOT EXISTS)
    Scan R
    AntiProbe NOT EXISTS by(R.B)
      HashJoin INNER (S.B = R.B)
        Outer
        RangeScan S C in (-inf, 2)
`,
		},
		{
			// Correlation through an inequality: the inner scope's filter
			// reads the tested row; an uncorrelated IN's element scope runs
			// once per execution.
			"select R.A from R where exists (select 1 from S where S.C < R.A) and R.B not in (select T.C from T)",
			`Project [A]
  Filter (EXISTS AND NOT IN (R.B → T.C))
    Scan R
    SemiProbe EXISTS by(R.A)
      Filter (S.C < R.A)
        CrossJoin INNER
          Outer
          Scan S
    AntiProbe NOT IN (R.B → T.C) by(R.B)
      HashJoin INNER (R.B = T.C) index(T)
        Outer
        Scan T
    UnknownProbe T.C static
      Scan T
`,
		},
		{
			// Range conjuncts on one column merge into a bounded RangeScan.
			"select R.A from R where R.A >= 2 and R.A < 7",
			`Project [A]
  RangeScan R A in [2, 7)
`,
		},
		{
			// BETWEEN desugars into the same bounded range, closed above.
			"select R.A from R where R.B between 1 and 5",
			`Project [A]
  RangeScan R B in [1, 5]
`,
		},
		{
			// Parameter bounds resolve per execution; a second range column
			// stays a filter, and a flipped literal side still binds.
			"select R.A from R where 3 < R.A and R.A <= $1 and R.B < 9",
			`Project [A]
  Filter (R.B < 9)
    RangeScan R A in (3, $1]
`,
		},
		{
			// An equality probe wins over range pushdown: the ordering
			// conjunct stays a filter above the probed scan.
			"select R.A from R where R.A = 1 and R.B < 4",
			`Project [A]
  Filter (R.B < 4)
    Scan R probe(A=1)
`,
		},
		{
			"select R.A, sum(R.B) sm, count(*) c from R group by R.A having min(R.B) >= 0",
			`Project [A, sm, c]
  Filter (min(R.B) >= 0)
    GroupAggregate keys=[R.A] aggs=[sum(R.B), count(*), min(R.B)]
      Scan R
`,
		},
		{
			"select R.A, S.C from R left join S on R.B = S.B and S.C = 1",
			`Project [A, C]
  HashJoin LEFT (R.B = S.B) residual(S.C = 1) index(S)
    Scan R
    Scan S
`,
		},
		{
			"select R.A, S.B from R full join S on R.A = S.B",
			`Project [A, B]
  HashJoin FULL (R.A = S.B)
    Scan R
    Scan S
`,
		},
		{
			"select distinct X.ct from R, (select S.B, count(S.C) ct from S group by S.B) X where R.B = X.B",
			`Dedup
  Project [ct]
    HashJoin INNER (R.B = X.B)
      Scan R
      Derived as X
        Project [B, ct]
          GroupAggregate keys=[S.B] aggs=[count(S.C)]
            Scan S
`,
		},
		{
			// Recursive CTE: the step compiles once into a pipeline whose
			// self-reference scans the per-round delta.
			"with recursive tc(x, y) as (select R.A, R.B from R union select tc.x, R.B from tc, R where tc.y = R.A) select tc.x from tc where tc.x = 1",
			`With
  RecursiveCTE tc [x, y] UNION
    Base:
      Project [A, B]
        Scan R
    Step (Δtc per round):
      Project [x, B]
        HashJoin INNER (tc.y = R.A) index(R)
          CteScan Δtc
          Scan R
  Body:
    Project [x]
      Filter (tc.x = 1)
        CteScan tc
`,
		},
		{
			// Plain CTE: materialized once, then scanned by the body join.
			"with x as (select R.A a from R) select x.a from x, S where x.a = S.B",
			`With
  CTE x [a]
    Project [a]
      Scan R
  Body:
    Project [a]
      HashJoin INNER (x.a = S.B) index(S)
        CteScan x
        Scan S
`,
		},
	}
	db := testDB()
	for _, c := range cases {
		p, err := Compile(sql.MustParse(c.src), db)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		if got := p.Explain(); got != c.want {
			t.Errorf("plan mismatch for %q\ngot:\n%s\nwant:\n%s", c.src, got, c.want)
		}
	}
}

// TestNotPlannableFallbacks pins queries outside the fragment: they must
// fail with ErrNotPlannable (so callers fall back) rather than
// miscompile.
func TestNotPlannableFallbacks(t *testing.T) {
	db := testDB()
	for _, src := range []string{
		// Scalar subquery expression.
		"select R.A, (select S.C from S where S.B = R.B) from R",
		// LATERAL derived table.
		"select x.A, z.B from R as x join lateral (select y.B from S as y where x.A < y.C) as z on true",
		// Grouped subquery.
		"select R.A from R where R.B in (select count(S.C) from S)",
		// Correlation inside a subquery's FROM.
		"select R.A from R where exists (select 1 from S join T on S.C = T.C and T.A = R.A)",
		// Representative-row grouping (item outside keys and aggregates).
		"select R.B from R group by R.A",
	} {
		_, err := Compile(sql.MustParse(src), db)
		if err == nil {
			t.Errorf("%q: expected not-plannable, compiled", src)
			continue
		}
		if !errors.Is(err, ErrNotPlannable) {
			t.Errorf("%q: error %v does not wrap ErrNotPlannable", src, err)
		}
	}
}

// TestPlanExecutionEdgeCases exercises the semantics corners that the
// hash-based operators must preserve: NULL join keys never matching,
// NOT IN with NULLs, unmatched FULL-join sides, and an int joining the
// equal float beyond 2^53.
func TestPlanExecutionEdgeCases(t *testing.T) {
	run := func(src string, db map[string]*relation.Relation) *relation.Relation {
		t.Helper()
		p, err := Compile(sql.MustParse(src), db)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		out, err := p.ExecuteWith(nil, nil)
		if err != nil {
			t.Fatalf("execute %q: %v", src, err)
		}
		return out
	}

	// NULL keys never join.
	db := map[string]*relation.Relation{
		"R": relation.New("R", "A").Add(1).Add(nil),
		"S": relation.New("S", "B").Add(1).Add(nil),
	}
	if got := run("select R.A, S.B from R, S where R.A = S.B", db); got.Card() != 1 {
		t.Fatalf("NULL keys joined:\n%s", got)
	}

	// NOT IN: any NULL in the subquery empties the result; a NULL probe
	// only survives an empty subquery.
	dbNull := map[string]*relation.Relation{
		"R": relation.New("R", "A").Add(1).Add(3),
		"S": relation.New("S", "A").Add(2).Add(nil),
	}
	if got := run("select R.A from R where R.A not in (select S.A from S)", dbNull); got.Card() != 0 {
		t.Fatalf("NOT IN with NULL should be empty:\n%s", got)
	}

	// FULL JOIN null-extends both unmatched sides, once each.
	dbFull := map[string]*relation.Relation{
		"R": relation.New("R", "a").Add(1).Add(2),
		"S": relation.New("S", "b").Add(2).Add(3),
	}
	got := run("select R.a, S.b from R full join S on R.a = S.b", dbFull)
	want := relation.New("W", "a", "b").Add(1, nil).Add(2, 2).Add(nil, 3)
	if !got.EqualBag(want) {
		t.Fatalf("full join mismatch:\ngot\n%s\nwant\n%s", got, want)
	}

	// Beyond 2^53 the int 2^60 and the float 2^60 are Eq-equal, so they
	// share a hash-table Key and join.
	big := int64(1) << 60
	dbBig := map[string]*relation.Relation{
		"R": relation.New("R", "A").Add(value.Int(big)),
		"S": relation.New("S", "B").Add(value.Float(float64(big))),
	}
	if got := run("select R.A from R, S where R.A = S.B", dbBig); got.Card() != 1 {
		t.Fatalf("hash join missed the 2^60 match:\n%s", got)
	}
}

// TestExplainStable double-checks the renderer never emits unbalanced
// indentation (each line's depth is a multiple of two spaces).
func TestExplainStable(t *testing.T) {
	db := testDB()
	p, err := Compile(sql.MustParse(
		"select R.A from R where R.B in (select S.B from S) and exists (select 1 from T where T.A = R.A)"), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(p.Explain(), "\n"), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if (len(line)-len(trimmed))%2 != 0 {
			t.Fatalf("odd indentation in line %q", line)
		}
	}
}
