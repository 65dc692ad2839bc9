package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// budgetCtx is a deterministic cancellation source: its Err() starts
// returning errBudget after n polls, so tests can pin exactly that the
// execution layers poll it — no timing involved.
type budgetCtx struct {
	context.Context
	left atomic.Int64
}

var errBudget = errors.New("poll budget exhausted")

func newBudgetCtx(n int64) *budgetCtx {
	c := &budgetCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

// Done returns a non-nil channel so the engine treats the context as
// cancellable and installs the poll.
func (c *budgetCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *budgetCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return errBudget
	}
	return nil
}

// TestCancelMidStream reads a few rows off a streaming cursor, cancels
// the context, and verifies the cursor stops with the cancellation error
// and Close releases cleanly.
func TestCancelMidStream(t *testing.T) {
	r := relation.New("R", "A", "B")
	for i := 0; i < 5000; i++ {
		r.Add(i, i%7)
	}
	db := Open(r)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Query(ctx, LangSQL, "select R.A, R.B from R")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for rows.Next() {
		got++
		if got == 3 {
			cancel()
		}
		if got > 10 {
			break
		}
	}
	if got > 10 {
		t.Fatalf("cursor kept streaming after cancellation (%d rows)", got)
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	// The cursor stays stopped.
	if rows.Next() {
		t.Fatal("Next after Close returned true")
	}
}

// TestCancelBeforeQuery pins the fast path: a context cancelled before
// Query never starts executing.
func TestCancelBeforeQuery(t *testing.T) {
	db := Open(chain(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, LangSQL, "select P.s from P"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled", err)
	}
}

// TestCancelDuringFixpointRounds pins that a recursive CTE's round loop
// polls cancellation between rounds, under UNION and under UNION ALL:
// with a tiny poll budget the execution must abort with the budget error
// instead of running the recursion to completion.
func TestCancelDuringFixpointRounds(t *testing.T) {
	db := Open(chain(200))
	for _, mode := range []string{"union", "union all"} {
		stmt, err := db.Prepare(LangSQL, `with recursive tc(s, t) as (
			select P.s, P.t from P `+mode+` select tc.s, P.t from tc, P where tc.t = P.s
		) select tc.s, tc.t from tc`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.QueryAll(newBudgetCtx(5)); !errors.Is(err, errBudget) {
			t.Fatalf("%s: QueryAll = %v, want the poll-budget error", mode, err)
		}
		// Sanity: with no budget pressure the same statement completes;
		// over a chain every pair has one path, so UNION ALL derives the
		// same rows once each.
		rel, err := stmt.QueryAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rel.Distinct() != 200*201/2 || rel.Card() != 200*201/2 {
			t.Fatalf("%s: TC size %d, card %d", mode, rel.Distinct(), rel.Card())
		}
	}
}

// TestCancelBulkShapes pins cancellation for plan shapes whose operator
// chains have no guard site of their own (pure projection, streamed
// group-by, union, point fast path): the materialize loops must poll.
func TestCancelBulkShapes(t *testing.T) {
	r := relation.New("R", "A", "B")
	for i := 0; i < 5000; i++ {
		r.Add(i, i%11)
	}
	db := Open(r)
	for _, src := range []string{
		"select R.A + 1 s from R",
		"select R.B, sum(R.A) s from R group by R.B",
		"select R.A c from R union all select R.B c from R",
		"select R.A, R.B from R", // point fast path (projection over scan)
	} {
		if _, err := db.QueryAll(newBudgetCtx(3), LangSQL, src); !errors.Is(err, errBudget) {
			t.Fatalf("QueryAll(%q) = %v, want the poll-budget error", src, err)
		}
	}
}

// TestCancelARCAndDatalogFixpoints pins the poll in the shared fixpoint
// engine for the other two front ends.
func TestCancelARCAndDatalogFixpoints(t *testing.T) {
	db := Open(chain(300))
	arcStmt, err := db.Prepare(LangARC,
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arcStmt.QueryAll(newBudgetCtx(10)); !errors.Is(err, errBudget) {
		t.Fatalf("ARC QueryAll = %v, want the poll-budget error", err)
	}
	dlStmt, err := db.Prepare(LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dlStmt.QueryAll(newBudgetCtx(10)); !errors.Is(err, errBudget) {
		t.Fatalf("Datalog QueryAll = %v, want the poll-budget error", err)
	}
}

// TestCancelNonRecursiveScopes pins the per-tuple poll of internal/eval
// where no fixpoint round would poll for it: the build loop of a grouped
// lookup, the inner loop of an existence filter with nothing to probe by,
// a plain compiled join, a scope left on environment enumeration, and a
// copy of a stored relation, whose head projection passes its scan's rows
// through.
func TestCancelNonRecursiveScopes(t *testing.T) {
	r := relation.New("R", "A", "B")
	for i := 0; i < 5000; i++ {
		r.Add(i, i%11)
	}
	db := Open(r)
	for _, src := range []string{
		"Q(c) :- c = count : {R(_,_)}.",
		"Q(b,s) :- R(0,b), s = sum a : {R(a,b)}.",
		"Q(a) :- R(a,0), !R(_,a).",
		"Q(a) :- R(a,b), R(b,_).",
		"Q(a,m) :- R(a,0), m = max a2 : {R(a2,_), a2 < a}.",
		"Q(a,b) :- R(a,b).",
	} {
		if _, err := db.QueryAll(newBudgetCtx(3), LangDatalog, src); !errors.Is(err, errBudget) {
			t.Fatalf("QueryAll(%q) = %v, want the poll-budget error", src, err)
		}
	}
	const arcCopy = "{Q(A, B) | ∃r ∈ R [Q.A = r.A ∧ Q.B = r.B]}"
	if _, err := db.QueryAll(newBudgetCtx(3), LangARC, arcCopy); !errors.Is(err, errBudget) {
		t.Fatalf("QueryAll(%q) = %v, want the poll-budget error", arcCopy, err)
	}
}

// TestCancelWithRealTimeout exercises the same path with a real deadline
// for good measure (generous margins; the assertion is only that the
// error is the context's).
func TestCancelWithRealTimeout(t *testing.T) {
	db := Open(chain(2000))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	_, err := db.QueryAll(ctx, LangSQL, `with recursive tc(s, t) as (
		select P.s, P.t from P union select tc.s, P.t from tc, P where tc.t = P.s
	) select tc.s, tc.t from tc`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
