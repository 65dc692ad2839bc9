package qgen

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/fixpoint"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/sqleval"
	"repro/internal/workload"
)

// runPlan runs q through internal/plan alone, the way the engine does:
// a schema-bound plan, executed on db.
func runPlan(q sql.Query, db sqleval.DB) (*relation.Relation, error) {
	p, err := plan.CompileSchema(q, db)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOn(db, nil, nil)
}

// TestRecursiveCTEDifferential extends the plan-vs-reference methodology
// to recursion: randomized WITH RECURSIVE queries (transitive closure,
// same-generation, depth-bounded walks; UNION and UNION ALL) evaluated
// through the fixpoint-engine plan path and the independent
// naive-iteration reference must return byte-identical relations. The
// UNION ALL queries, which accumulate bags, are counted and held to a
// floor, so that the corpus keeps exercising bag rounds.
func TestRecursiveCTEDifferential(t *testing.T) {
	const trials = 400
	const unionAllFloor = 62 // what the generator draws from this seed
	rng := rand.New(rand.NewSource(77))
	planned, unionAll := 0, 0
	for i := 0; i < trials; i++ {
		schema := RandomInstance(rng, 15+rng.Intn(15), i%4 == 0)
		src := GenerateRecursive(rng)
		q, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %v\n%s", err, src)
		}
		db := sqleval.NewDB(schema.Relations()...)
		ref, refErr := sqleval.Eval(q, db)
		pl, plErr := runPlan(q, db)
		if plErr != nil {
			t.Fatalf("recursive corpus query fell out of the planner fragment: %v\n%s", plErr, src)
		}
		if refErr != nil {
			t.Fatalf("reference failed where planner succeeded: %v\n%s", refErr, src)
		}
		planned++
		if strings.Contains(src, " union all ") {
			unionAll++
		}
		if ref.String() != pl.String() {
			t.Fatalf("plan vs reference diverge on\n%s\nreference:\n%s\nplanned:\n%s", src, ref, pl)
		}
	}
	if planned != trials {
		t.Fatalf("planned %d/%d recursive queries", planned, trials)
	}
	if unionAll < unionAllFloor {
		t.Fatalf("%d/%d UNION ALL queries, want at least %d", unionAll, trials, unionAllFloor)
	}
}

// TestThreeWayTransitiveClosure pins the acceptance criterion: the same
// 50-node-chain transitive closure expressed in SQL (WITH RECURSIVE),
// ARC (recursive collection), and Datalog returns byte-identical
// relations once normalized to a common name and attribute list.
func TestThreeWayTransitiveClosure(t *testing.T) {
	p := workload.Chain(50)

	// SQL front end.
	sqlOut, err := runPlan(sql.MustParse(
		`with recursive tc(s, t) as (
			select P.s, P.t from P
			union
			select tc.s, P.t from tc, P where tc.t = P.s
		) select tc.s, tc.t from tc`), sqleval.NewDB(p))
	if err != nil {
		t.Fatal(err)
	}

	// ARC front end.
	col := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	arcOut, err := eval.Eval(col, eval.NewCatalog().AddRelation(p), convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}

	// Datalog front end.
	prog := datalog.MustParse("A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	dlOut, err := datalog.EvalPredicate(prog, datalog.EDB{"P": p}, "A")
	if err != nil {
		t.Fatal(err)
	}

	want := sqlOut.Rename("tc", []string{"s", "t"}).String()
	if got := arcOut.Rename("tc", []string{"s", "t"}).String(); got != want {
		t.Fatalf("ARC TC diverges from SQL TC\nSQL:\n%s\nARC:\n%s", want, got)
	}
	if got := dlOut.Rename("tc", []string{"s", "t"}).String(); got != want {
		t.Fatalf("Datalog TC diverges from SQL TC\nSQL:\n%s\nDatalog:\n%s", want, got)
	}
	// Chain(50) has 50 nodes and 49 edges: 49·50/2 reachable pairs.
	if n := 49 * 50 / 2; sqlOut.Distinct() != n {
		t.Fatalf("TC over chain(50): %d tuples, want %d", sqlOut.Distinct(), n)
	}
}

// TestRecursiveCTETerminationGuards pins the runaway-recursion behaviour
// on both execution paths: a UNION ALL step over a cyclic instance keeps
// deriving rows forever, and both the planner's fixpoint engine and the
// reference naive loop must surface a clear iteration-cap error rather
// than hang.
func TestRecursiveCTETerminationGuards(t *testing.T) {
	cyc := relation.New("E", "s", "t").Add(0, 1).Add(1, 0)
	db := sqleval.NewDB(cyc)
	q := sql.MustParse(`with recursive w(s, t) as (
		select E.s, E.t from E
		union all
		select w.s, E.t from w, E where w.t = E.s
	) select w.s, w.t from w`)

	savedEngine := fixpoint.MaxIterations
	savedRef := sqleval.MaxRecursiveIterations
	fixpoint.MaxIterations = 40
	sqleval.MaxRecursiveIterations = 40
	defer func() {
		fixpoint.MaxIterations = savedEngine
		sqleval.MaxRecursiveIterations = savedRef
	}()

	hint := "(UNION ALL recursion needs a bounded step)"
	if _, err := runPlan(q, db); !errors.Is(err, fixpoint.ErrIterationCap) {
		t.Fatalf("plan path: got %v, want ErrIterationCap", err)
	} else if !strings.HasSuffix(err.Error(), hint) {
		t.Fatalf("plan path error %q does not end in %q", err, hint)
	}
	if _, err := sqleval.Eval(q, db); err == nil {
		t.Fatal("reference path: cyclic UNION ALL must error, not loop")
	} else if want := "did not converge"; !strings.Contains(err.Error(), want) || !strings.HasSuffix(err.Error(), hint) {
		t.Fatalf("reference path error %q does not mention %q and end in %q", err, want, hint)
	}

	// The same shape under UNION terminates: set accumulation saturates.
	uq := sql.MustParse(`with recursive w(s, t) as (
		select E.s, E.t from E
		union
		select w.s, E.t from w, E where w.t = E.s
	) select w.s, w.t from w`)
	for path, run := range map[string]func(sql.Query, sqleval.DB) (*relation.Relation, error){"plan": runPlan, "reference": sqleval.Eval} {
		out, err := run(uq, db)
		if err != nil {
			t.Fatalf("UNION over cycle (%s path): %v", path, err)
		}
		if out.Distinct() != 4 {
			t.Fatalf("UNION over 2-cycle: %d tuples, want 4", out.Distinct())
		}
	}
}
