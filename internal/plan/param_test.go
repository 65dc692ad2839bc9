package plan

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

func paramTestDB() map[string]*relation.Relation {
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(2, 21).Add(nil, 99)
	return map[string]*relation.Relation{"R": r}
}

// TestParamProbePlanAndExecution pins that a $n equality compiles into a
// scan probe (consumed conjunct, no residual filter) and that every
// binding class executes correctly: values probe, NULL yields nothing,
// and integers beyond 2^53 probe exactly like small ones.
func TestParamProbePlanAndExecution(t *testing.T) {
	db := paramTestDB()
	p, err := Compile(sql.MustParse("select R.A, R.B from R where R.A = $1"), db)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	explain := p.Explain()
	if !strings.Contains(explain, "probe(A=$1)") {
		t.Fatalf("expected probe(A=$1) in plan:\n%s", explain)
	}
	if strings.Contains(explain, "Filter") {
		t.Fatalf("param equality should be consumed by the probe, not filtered:\n%s", explain)
	}
	run := func(v value.Value) int {
		t.Helper()
		out, err := p.ExecuteWith([]value.Value{v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Card()
	}
	if got := run(value.Int(2)); got != 2 {
		t.Fatalf("A=2 returned %d rows, want 2", got)
	}
	if got := run(value.Null()); got != 0 {
		t.Fatalf("A=NULL returned %d rows, want 0", got)
	}
	if got := run(value.Int(1 << 60)); got != 0 {
		t.Fatalf("A=2^60 returned %d rows, want 0", got)
	}
	// Key identity is Eq beyond 2^53 too: a relation holding 2^60 is
	// found by the probe.
	db["R"].Add(int64(1<<60), 1)
	if got := run(value.Int(1 << 60)); got != 1 {
		t.Fatalf("A=2^60 after insert returned %d rows, want 1", got)
	}
	// Missing binding is an execution error, not a silent NULL.
	if _, err := p.ExecuteWith(nil, nil); err == nil {
		t.Fatal("expected an unbound-parameter error")
	}
}

// TestParamOutsideProbePositions exercises $n leaves in residual
// predicate, projection arithmetic, and HAVING positions.
func TestParamOutsideProbePositions(t *testing.T) {
	db := paramTestDB()
	p, err := Compile(sql.MustParse("select R.A + $1 s from R where R.B > $2"), db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExecuteWith([]value.Value{value.Int(100), value.Int(15)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() != 3 { // B ∈ {20, 21, 99}
		t.Fatalf("got %d rows:\n%s", out.Card(), out)
	}
	g, err := Compile(sql.MustParse("select R.A, count(*) c from R group by R.A having count(*) >= $1"), db)
	if err != nil {
		t.Fatal(err)
	}
	out, err = g.ExecuteWith([]value.Value{value.Int(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() != 1 {
		t.Fatalf("HAVING with param: %d rows, want 1:\n%s", out.Card(), out)
	}
}

// TestRecursivePlanConcurrentExecution pins plan re-entrancy: the
// fixpoint handle state of a compiled recursive plan lives in the
// per-execution context, so one plan object may run on many goroutines
// at once (run under -race).
func TestRecursivePlanConcurrentExecution(t *testing.T) {
	p := relation.New("P", "s", "t")
	for i := 0; i < 30; i++ {
		p.Add(i, i+1)
	}
	plan, err := Compile(sql.MustParse(`with recursive tc(s, t) as (
		select P.s, P.t from P union select tc.s, P.t from tc, P where tc.t = P.s
	) select tc.s, tc.t from tc where tc.s = $1`), map[string]*relation.Relation{"P": p})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{}
	for k := 0; k < 4; k++ {
		out, err := plan.ExecuteWith([]value.Value{value.Int(int64(k))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = out.Card()
		if want[k] != 30-k {
			t.Fatalf("tc from %d has %d rows, want %d", k, want[k], 30-k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % 4
				out, err := plan.ExecuteWith([]value.Value{value.Int(int64(k))}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if out.Card() != want[k] {
					t.Errorf("goroutine %d: tc from %d gave %d rows, want %d", g, k, out.Card(), want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanRunsOnAnyInstanceOfItsSchema pins that a plan binds a schema,
// not data: compiled once, it reads whichever relation map an execution
// names — and a stream keeps the map it started on.
func TestPlanRunsOnAnyInstanceOfItsSchema(t *testing.T) {
	older := paramTestDB()
	p, err := CompileSchema(sql.MustParse("select R.B from R where R.A = $1"), older)
	if err != nil {
		t.Fatal(err)
	}
	newer := map[string]*relation.Relation{"R": older["R"].Clone().Add(2, 22)}
	args := []value.Value{value.Int(2)}
	seq, errFn := p.StreamOn(older, args, nil, nil)
	for db, want := range map[*map[string]*relation.Relation]int{&older: 2, &newer: 3} {
		out, err := p.ExecuteOn(*db, args, nil)
		if err != nil || out.Card() != want {
			t.Fatalf("ExecuteOn: %v, %v; want %d rows", out, err, want)
		}
	}
	n := 0
	for range seq {
		n++
	}
	if err := errFn(); err != nil || n != 2 {
		t.Fatalf("stream opened on the older instance yielded %d rows (%v), want 2", n, err)
	}
	// No default map, and a map without the relation, fail the run.
	if _, err := p.ExecuteWith(args, nil); err == nil {
		t.Fatal("a CompileSchema plan ran without a relation map")
	}
}
