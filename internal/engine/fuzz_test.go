package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/relation"
)

// fuzzDB builds the catalog the fuzzed statements prepare against: a
// couple of plausible relations so inputs that parse also validate and
// plan, exercising the deeper layers too.
func fuzzDB() *DB {
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20)
	p := relation.New("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, nil)
	return Open(r, p)
}

// FuzzPrepareSQL asserts Prepare never panics on arbitrary SQL bytes —
// any outcome is fine as long as it is a value or an error. The recover
// guard at the engine boundary converts a missed parser/planner panic
// into a *PanicError, which the fuzzer treats as a finding.
func FuzzPrepareSQL(f *testing.F) {
	for _, seed := range []string{
		"select R.A from R",
		"select R.A, R.B from R where R.A = $1",
		"select R.A from R where R.A in (select P.s from P)",
		"select R.A from R where R.B not in (select P.t from P)",
		"select R.A from R where exists (select 1 from P where P.s < R.A)",
		"delete from R r where r.B not in (select P.t from P where P.s < r.A)",
		"with recursive A (s, t) as (select P.s, P.t from P union select P.s, A.t from P, A where P.t = A.s) select A.s from A",
		"select count(*) from R group by R.B having count(*) > 1",
		"select from where", "((((", "select $0 $99999", ";;;",
		"select R.A from R order by", "with a as (select", "\x00\xff\xfe",
	} {
		f.Add(seed)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := db.Prepare(LangSQL, src)
		assertNoPanicError(t, err)
		_ = stmt
	})
}

// FuzzPrepareARC asserts ARC comprehension parsing/validation never
// panics on arbitrary bytes.
func FuzzPrepareARC(f *testing.F) {
	for _, seed := range []string{
		"{(A: r.A) | r ∈ R}",
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}",
		"{broken", "{}", "{x | ", "∃∃∃", "{(A: r.A) | r ∈ }", "\xff{|}",
	} {
		f.Add(seed)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := db.Prepare(LangARC, src)
		assertNoPanicError(t, err)
		_ = stmt
	})
}

// FuzzPrepareDatalog asserts that no Datalog source panics anywhere on
// its way through parsing, lowering to ARC, and evaluation: whatever
// prepares is also executed. The deadline cuts programs that diverge
// (arithmetic recursion keeps deriving new values) at the fixpoint's
// per-round cancellation poll.
func FuzzPrepareDatalog(f *testing.F) {
	for _, seed := range []string{
		"A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).",
		"A(x) :- P(x, _), !Q(x).",
		"A(s) :- s = sum x : { P(x, y) }.",
		"A(x :-", ":-", "A().", "A(x) :- A(x).", "%comment only", "\x00.",
		// Facts, assignment form, aggregate-only bodies, mutual and
		// non-linear recursion, and recursion that never converges.
		"F(1,2). F(2,3). G(x) :- F(x,_).",
		"Q(x,y) :- R(x,_), y = x * 2 + 1.",
		"Q(z) :- R(x,_), z = y / 0, y = x - 1.",
		"M(m) :- m = min b : {R(_,b)}. C(c) :- c = count : {R(_,_)}.",
		"T(m) :- m = max s : {R(a,_), s = sum b : {R(a,b)}}.",
		"E(x) :- R(x,_). E(y) :- P(x,y), O(x). O(y) :- P(x,y), E(x).",
		"A(x,y) :- P(x,y). A(x,y) :- A(x,z), A(z,y).",
		"N(0). N(y) :- N(x), y = x + 1.",
		"t1(x) :- P(x,_). x2(x) :- t1(x), !P(_,x).",
		// Decorrelated scopes: an aggregate beside a negated atom, a
		// correlation key that is NULL, an aggregate over aggregates.
		"Q(a,c) :- R(a,b), !P(_,a), c = count : {P(a,_)}.",
		"Q(z,c) :- R(x,_), z = x / 0, c = sum b : {R(z,b)}.",
		"T(a,m) :- R(a,_), m = max s : {R(a,b), s = count : {P(b,_)}}.",
	} {
		f.Add(seed)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := db.Prepare(LangDatalog, src)
		assertNoPanicError(t, err)
		if err != nil || stmt.Kind() != KindQuery {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, err = stmt.QueryAll(ctx)
		assertNoPanicError(t, err)
	})
}

// FuzzExecSQL asserts that executing arbitrary SQL bytes never panics:
// Prepare classifies the statement, Exec applies DML/DDL through a write
// set and commits, and a query's cursor is drained under a deadline,
// which cuts a recursion that diverges. Each input runs against a fresh
// DB so accumulated writes never change what a given input exercises.
func FuzzExecSQL(f *testing.F) {
	for _, seed := range []string{
		"insert into R values (1, 2)",
		"insert into R (B, A) values (3, 4), (5, 6)",
		"insert into R select P.s, P.t from P",
		"insert into R values ($1, $1 + 1)",
		"delete from R",
		"delete from R where R.A = 1",
		"delete from R r where r.A in (select P.s from P)",
		"delete from R r where r.B not in (select P.t from P where P.s < r.A)",
		"select R.A from R where R.B not in (select P.t from P)",
		"select R.A from R where exists (select 1 from P where P.s < R.A)",
		"create table T (X int, Y text)",
		"begin", "commit", "rollback",
		"insert into", "delete where", "create table R (A, A)",
		"insert into R values ((((", "insert into Nope values (1)",
		"delete from R where $9", "create table \x00 (a)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db := fuzzDB()
		stmt, err := db.Prepare(LangSQL, src)
		assertNoPanicError(t, err)
		if err != nil {
			return
		}
		if stmt.Kind() != KindQuery {
			_, err = stmt.Exec(context.Background())
			assertNoPanicError(t, err)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		rows, err := stmt.Query(ctx)
		assertNoPanicError(t, err)
		if err != nil {
			return
		}
		for rows.Next() {
		}
		assertNoPanicError(t, rows.Close())
	})
}

// FuzzExecFactOps asserts the shared ARC/Datalog assertion/retraction
// surface never panics on arbitrary bytes.
func FuzzExecFactOps(f *testing.F) {
	for _, seed := range []string{
		"+R(1, 2).", "-P(1, 2)", "+R(1, 2) -R(1, 2); +P('a', \"b\")",
		"+R(1.5, -2)", "+R(true, null)", "+", "-", "+R(", "+R(1",
		"+R('unterminated", "+R(1,2,3)", "+Nope(1)", "++--",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db := fuzzDB()
		stmt, err := db.Prepare(LangARC, src)
		assertNoPanicError(t, err)
		if err != nil || stmt.Kind() == KindQuery {
			return
		}
		_, err = stmt.Exec(context.Background())
		assertNoPanicError(t, err)
	})
}

// assertNoPanicError fails the fuzz run when Prepare survived only
// thanks to the recover guard: the guard keeps a server alive in
// production, but a panic on hostile input is still a parser bug the
// fuzzer should surface.
func assertNoPanicError(t *testing.T, err error) {
	t.Helper()
	if pe, ok := err.(*PanicError); ok {
		t.Fatalf("Prepare panicked (recovered at boundary): %v\n%s", pe.Val, pe.Stack)
	}
}
