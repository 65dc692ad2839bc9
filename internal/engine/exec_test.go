package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

func mustExec(t *testing.T, db *DB, lang Lang, src string, args ...any) Result {
	t.Helper()
	res, err := db.Exec(context.Background(), lang, src, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func countAll(t *testing.T, q func(context.Context, Lang, string, ...any) (*relation.Relation, error), lang Lang, src string, args ...any) int {
	t.Helper()
	rel, err := q(context.Background(), lang, src, args...)
	if err != nil {
		t.Fatalf("QueryAll(%q): %v", src, err)
	}
	return rel.Card()
}

func TestExecInsertValues(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10))
	startGen := db.Generation()
	res := mustExec(t, db, LangSQL, "insert into R values (2, 20), (3, 30)")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	if res.Generation != startGen+1 {
		t.Fatalf("Generation = %d, want %d", res.Generation, startGen+1)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A, R.B from R"); got != 3 {
		t.Fatalf("rows after insert = %d, want 3", got)
	}
	// Parameters const-evaluate, including arithmetic over them.
	res = mustExec(t, db, LangSQL, "insert into R values ($1, $1 + 1)", int64(4))
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.B from R where R.A = 4 and R.B = 5"); got != 1 {
		t.Fatal("parameterized insert row missing")
	}
}

func TestExecInsertColumnListNullFill(t *testing.T) {
	db := Open(relation.New("R", "A", "B", "C"))
	mustExec(t, db, LangSQL, "insert into R (C, A) values (30, 3)")
	rel, err := db.QueryAll(context.Background(), LangSQL, "select R.A, R.B, R.C from R")
	if err != nil {
		t.Fatal(err)
	}
	tuples := rel.Tuples()
	if len(tuples) != 1 {
		t.Fatalf("got %d rows, want 1", len(tuples))
	}
	tup := tuples[0]
	if tup[0].AsInt() != 3 || !tup[1].IsNull() || tup[2].AsInt() != 30 {
		t.Fatalf("row = %v, want (3, NULL, 30)", tup)
	}
	// Unknown and duplicate columns are prepare-time errors.
	if _, err := db.Exec(context.Background(), LangSQL, "insert into R (A, Z) values (1, 2)"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := db.Exec(context.Background(), LangSQL, "insert into R (A, A) values (1, 2)"); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestExecInsertSelect(t *testing.T) {
	db := Open(
		relation.New("Src", "X", "Y").Add(1, 10).Add(2, 20).Add(2, 20),
		relation.New("Dst", "A", "B"),
	)
	res := mustExec(t, db, LangSQL, "insert into Dst select Src.X, Src.Y from Src where Src.X > 1")
	// Bag semantics: the duplicate (2,20) carries multiplicity 2.
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select Dst.A from Dst"); got != 2 {
		t.Fatalf("Dst rows = %d, want 2", got)
	}
}

func TestExecDelete(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(2, 20).Add(3, 30))
	res := mustExec(t, db, LangSQL, "delete from R where R.A = $1", int64(2))
	// Every occurrence of a matched tuple goes.
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 2 {
		t.Fatalf("remaining rows = %d, want 2", got)
	}
	// No matches: zero affected, no error, and no generation bump.
	gen := db.Generation()
	res = mustExec(t, db, LangSQL, "delete from R where R.A = 99")
	if res.RowsAffected != 0 {
		t.Fatalf("RowsAffected = %d, want 0", res.RowsAffected)
	}
	if db.Generation() != gen {
		t.Fatalf("no-op delete bumped generation %d -> %d", gen, db.Generation())
	}
	// DELETE with alias and no WHERE clears the table.
	res = mustExec(t, db, LangSQL, "delete from R r")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
}

func TestExecUpdate(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(2, 20).Add(3, 30))
	res := mustExec(t, db, LangSQL, "update R set B = $1 where R.A = 2", int64(99))
	// Every occurrence of a matched tuple is rewritten: (2,20)×2 → (2,99)×2.
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.B = 99"); got != 2 {
		t.Fatalf("rewritten occurrences = %d, want 2", got)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 4 {
		t.Fatalf("total rows = %d, want 4 (update must not change cardinality)", got)
	}
	// SET may reference the row being updated, and BETWEEN range
	// predicates drive the matching-rows query.
	res = mustExec(t, db, LangSQL, "update R set B = R.B + 1 where R.A between 1 and 2")
	if res.RowsAffected != 3 {
		t.Fatalf("RowsAffected = %d, want 3", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.B = 100"); got != 2 {
		t.Fatalf("B=100 occurrences = %d, want 2", got)
	}
	// Aliased form with an unqualified SET column reference.
	res = mustExec(t, db, LangSQL, "update R r set B = B + A where r.B = 11")
	if res.RowsAffected != 1 {
		t.Fatalf("aliased RowsAffected = %d, want 1", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.B = 12"); got != 1 {
		t.Fatalf("B=12 occurrences = %d, want 1", got)
	}
	// Value swap across columns must read the old row on both sides.
	mustExec(t, db, LangSQL, "delete from R")
	mustExec(t, db, LangSQL, "insert into R values (1, 2)")
	mustExec(t, db, LangSQL, "update R set A = R.B, B = R.A")
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.A = 2 and R.B = 1"); got != 1 {
		t.Fatalf("swap produced wrong row (want exactly (2,1))")
	}
	// No matches: zero affected, no error, and no generation bump.
	gen := db.Generation()
	res = mustExec(t, db, LangSQL, "update R set B = 0 where R.A = 42")
	if res.RowsAffected != 0 {
		t.Fatalf("RowsAffected = %d, want 0", res.RowsAffected)
	}
	if db.Generation() != gen {
		t.Fatalf("no-op update bumped generation %d -> %d", gen, db.Generation())
	}
}

func TestExecUpdateRangePlan(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10).Add(5, 50).Add(9, 90))
	s, err := db.Prepare(LangSQL, "update R set B = 0 where R.A >= 2 and R.A < 7")
	if err != nil {
		t.Fatal(err)
	}
	text, err := s.Explain()
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(text, "RangeScan R A in [2, 7)") {
		t.Fatalf("UPDATE range WHERE did not lower to a RangeScan:\n%s", text)
	}
	res, err := s.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.B = 0"); got != 1 {
		t.Fatalf("B=0 occurrences = %d, want 1", got)
	}
}

func TestExecUpdateErrors(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10))
	for _, src := range []string{
		"update Nope set A = 1",     // unknown table
		"update R set C = 1",        // unknown column
		"update R set A = 1, A = 2", // column set twice
	} {
		if _, err := db.Prepare(LangSQL, src); err == nil {
			t.Errorf("Prepare(%q) succeeded, want error", src)
		}
	}
	// An unknown column in WHERE compiles to the enumeration fallback
	// (same as DELETE) and must fail at execution.
	if _, err := db.Exec(context.Background(), LangSQL, "update R set A = 1 where R.C = 1"); err == nil {
		t.Error("Exec with unknown WHERE column succeeded, want error")
	}
}

func TestExecCreateTable(t *testing.T) {
	db := Open()
	res := mustExec(t, db, LangSQL, "create table T (A int, B text)")
	if res.RowsAffected != 0 {
		t.Fatalf("DDL RowsAffected = %d, want 0", res.RowsAffected)
	}
	mustExec(t, db, LangSQL, "insert into T values (1, 'x')")
	if got := countAll(t, db.QueryAll, LangSQL, "select T.A from T"); got != 1 {
		t.Fatalf("rows = %d, want 1", got)
	}
	if _, err := db.Exec(context.Background(), LangSQL, "create table T (C int)"); err == nil {
		t.Fatal("re-creating an existing table succeeded")
	}
}

func TestExecFactOps(t *testing.T) {
	db := Open(relation.New("Edge", "src", "dst").Add(1, 2))
	res := mustExec(t, db, LangARC, "+Edge(2, 3). +Edge(3, 4).")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	// Repeated assertion accumulates multiplicity; retraction removes all.
	mustExec(t, db, LangARC, "+Edge(2, 3)")
	res = mustExec(t, db, LangDatalog, "-Edge(2, 3).")
	if res.RowsAffected != 2 {
		t.Fatalf("retraction RowsAffected = %d, want 2", res.RowsAffected)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select Edge.src from Edge"); got != 2 {
		t.Fatalf("edges = %d, want 2", got)
	}
	if _, err := db.Exec(context.Background(), LangARC, "+Nope(1)"); err == nil {
		t.Fatal("fact op on unknown relation succeeded")
	}
	if _, err := db.Exec(context.Background(), LangARC, "+Edge(1)"); err == nil {
		t.Fatal("arity-mismatched fact op succeeded")
	}
}

func TestExecKindMisuse(t *testing.T) {
	db := Open(relation.New("R", "A").Add(1))
	if _, err := db.Exec(context.Background(), LangSQL, "select R.A from R"); err == nil {
		t.Fatal("Exec of a query succeeded")
	}
	s, err := db.Prepare(LangSQL, "insert into R values (9)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindDML {
		t.Fatalf("Kind = %v, want KindDML", s.Kind())
	}
	if _, err := s.Query(context.Background()); err == nil {
		t.Fatal("Query of a DML statement succeeded")
	}
	if _, err := s.QueryAll(context.Background()); err == nil {
		t.Fatal("QueryAll of a DML statement succeeded")
	}
	q, err := db.Prepare(LangSQL, "select R.A from R")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind() != KindQuery {
		t.Fatalf("Kind = %v, want KindQuery", q.Kind())
	}
	if _, err := q.Exec(context.Background()); err == nil {
		t.Fatal("Exec of a query statement succeeded")
	}
}

func TestDMLBindingRejected(t *testing.T) {
	db := Open(relation.New("R", "A"))
	extra := relation.New("R", "A").Add(5)
	_, err := db.Exec(context.Background(), LangSQL, "insert into R values (1)", In("R", extra))
	if !errors.Is(err, ErrDMLBinding) {
		t.Fatalf("binding a relation to DML: err = %v, want ErrDMLBinding", err)
	}
	// ARC/Datalog fact batches likewise take no bindings.
	_, err = db.Exec(context.Background(), LangARC, "+R(1)", In("R", extra))
	if !errors.Is(err, ErrDMLBinding) {
		t.Fatalf("binding a relation to fact ops: err = %v, want ErrDMLBinding", err)
	}
}

func TestTxReadYourWrites(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A", "B").Add(1, 10))
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare BEFORE the write: the statement executes on the
	// transaction's overlay as it is after the write and sees the new row
	// exactly once.
	s, err := tx.Prepare(LangSQL, "select R.A from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, LangSQL, "insert into R values (2, 20)"); err != nil {
		t.Fatal(err)
	}
	rel, err := s.QueryAll(ctx, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 1 {
		t.Fatalf("tx-prepared statement sees %d rows for its own write, want exactly 1", rel.Card())
	}
	// Other sessions don't see it before commit.
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.A = 2"); got != 0 {
		t.Fatalf("uncommitted write visible outside the transaction (%d rows)", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R where R.A = 2"); got != 1 {
		t.Fatalf("committed write invisible (%d rows)", got)
	}
	// The transaction is done: statements and control both fail.
	if _, err := s.QueryAll(ctx, int64(2)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("query on committed tx: err = %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: err = %v, want ErrTxDone", err)
	}
}

func TestTxRollbackDiscards(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A"))
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, LangSQL, "insert into R values (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 0 {
		t.Fatalf("rolled-back write visible (%d rows)", got)
	}
}

func TestTxFirstCommitterWins(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A").Add(1), relation.New("S", "B"))
	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(ctx, LangSQL, "insert into R values (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(ctx, LangSQL, "insert into R values (3)"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("first committer failed: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: err = %v, want ErrConflict", err)
	}
	// Only the winner's write landed.
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	// Disjoint write sets don't conflict.
	tx3, _ := db.Begin(ctx)
	tx4, _ := db.Begin(ctx)
	if _, err := tx3.Exec(ctx, LangSQL, "insert into R values (9)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx4.Exec(ctx, LangSQL, "insert into S values (9)"); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Commit(); err != nil {
		t.Fatalf("disjoint writer conflicted: %v", err)
	}
}

func TestCursorOpenedBeforeDeleteStreamsOldSnapshot(t *testing.T) {
	ctx := context.Background()
	r := relation.New("R", "A")
	for i := range 100 {
		r.Add(i)
	}
	db := Open(r)
	stmt, err := db.Prepare(LangSQL, "select R.A from R")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	// Committed DELETE lands while the cursor is open.
	res := mustExec(t, db, LangSQL, "delete from R where R.A < 50")
	if res.RowsAffected != 50 {
		t.Fatalf("delete removed %d, want 50", res.RowsAffected)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	// The cursor streams its pre-delete snapshot to completion.
	if n != 100 {
		t.Fatalf("cursor streamed %d rows, want the full pre-delete 100", n)
	}
	// The cursor owned that snapshot, not the statement: executed again,
	// the same statement reads the post-delete rows.
	rel, err := stmt.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 50 {
		t.Fatalf("re-executed statement sees %d rows, want the post-delete 50", rel.Card())
	}
}

// TestCursorOpenedInTxSurvivesSameTxDelete: "cursors own their snapshot"
// holds inside a transaction too — a DELETE or UPDATE later in the same
// transaction changes the working relation the cursor reads, and the
// cursor still streams exactly the rows that existed when it opened.
func TestCursorOpenedInTxSurvivesSameTxDelete(t *testing.T) {
	for _, c := range []struct {
		write string
		left  int // rows the transaction sees afterwards
	}{
		{"delete from R where R.A < 50", 51},
		{"update R set A = R.A + 5000 where R.A < 50", 101},
	} {
		write := c.write
		ctx := context.Background()
		r := relation.New("R", "A")
		for i := range 100 {
			r.Add(i)
		}
		tx, err := Open(r).Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The insert forces R's working copy, which the cursor then reads.
		if _, err := tx.Exec(ctx, LangSQL, "insert into R values (1000)"); err != nil {
			t.Fatal(err)
		}
		rows, err := tx.Query(ctx, LangSQL, "select R.A from R")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		read := func() {
			var a int64
			if err := rows.Scan(&a); err != nil {
				t.Fatal(err)
			}
			seen[a]++
		}
		if !rows.Next() {
			t.Fatal("cursor is empty")
		}
		read()
		if res, err := tx.Exec(ctx, LangSQL, write); err != nil || res.RowsAffected != 50 {
			t.Fatalf("%s: affected %d, err %v; want 50", write, res.RowsAffected, err)
		}
		for rows.Next() {
			read()
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		wrong := 0
		for a, n := range seen {
			if n != 1 || a >= 100 && a != 1000 {
				wrong++
			}
		}
		if len(seen) != 101 || wrong > 0 {
			t.Errorf("%s: cursor streamed %d distinct values, %d of them repeated or written after it opened; want the 101 rows that existed then, once each",
				write, len(seen), wrong)
		}
		if got := countAll(t, tx.QueryAll, LangSQL, "select R.A from R"); got != c.left {
			t.Errorf("%s: transaction sees %d rows afterwards, want %d", write, got, c.left)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinCursorInTxHoldsItsBuildSide: a join that probes a stored
// relation's index (EXPLAIN's index(S)) reads that relation as it was
// when the cursor opened, like a hash table built then: deletes, updates
// and inserts later in the same transaction change no row the cursor
// streams.
func TestJoinCursorInTxHoldsItsBuildSide(t *testing.T) {
	ctx := context.Background()
	r, s := relation.New("R", "A"), relation.New("S", "B")
	for i := range 100 {
		r.Add(i)
		s.Add(i)
	}
	tx, err := Open(r, s).Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	// The insert forces S's working copy, which the join then probes.
	if _, err := tx.Exec(ctx, LangSQL, "insert into S values (1000)"); err != nil {
		t.Fatal(err)
	}
	stmt, err := tx.Prepare(LangSQL, "select R.A, S.B from R, S where R.A = S.B")
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := stmt.Explain(); err != nil || !strings.Contains(plan, "index(S)") {
		t.Fatalf("the join does not probe S's index (%v):\n%s", err, plan)
	}
	rows, err := stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if a, b := rows.Row()[0], rows.Row()[1]; !a.Equal(b) || a.AsInt() != int64(n) {
			t.Fatalf("row %d = %v", n, rows.Row())
		}
		if n++; n == 1 {
			for _, w := range []string{
				"delete from S where S.B < 50",
				"update S set B = S.B + 1 where S.B >= 50",
				"insert into S values (0)",
				"insert into S values (99)",
			} {
				if _, err := tx.Exec(ctx, LangSQL, w); err != nil {
					t.Fatalf("%s: %v", w, err)
				}
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("cursor streamed %d rows, want the 100 matches that existed when it opened", n)
	}
}

// TestDeletingNothingIsNotAWrite: retracting a fact that is not there
// affects no row, so it publishes no snapshot, runs no commit hook, and
// raises no conflict.
func TestDeletingNothingIsNotAWrite(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("E", "s", "d").Add(1, 2))
	hooked := 0
	db.Store().SetCommitHook(func(uint64, []relation.LogOp) error { hooked++; return nil })
	gen, head, commits := db.Generation(), db.Relation("E"), db.Stats().Store.Commits
	res := mustExec(t, db, LangDatalog, "-E(7, 7).")
	if res.RowsAffected != 0 {
		t.Fatalf("RowsAffected = %d, want 0", res.RowsAffected)
	}
	if db.Generation() != gen || db.Relation("E") != head || db.Stats().Store.Commits != commits || hooked != 0 {
		t.Fatalf("retracting an absent fact wrote: generation %d -> %d, head relation replaced %v, commits %d -> %d, hook ran %d time(s)",
			gen, db.Generation(), db.Relation("E") != head, commits, db.Stats().Store.Commits, hooked)
	}
	// A transaction whose only statement retracted an absent fact has
	// written nothing, so a commit to E meanwhile is not a conflict.
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, LangDatalog, "-E(7, 7)."); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, LangDatalog, "+E(3, 4).")
	if err := tx.Commit(); err != nil {
		t.Fatalf("absent-retract transaction: %v", err)
	}
}

func TestSessionSQLTransactionControl(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A"))
	sess := db.NewSession()
	defer sess.Close()

	if _, err := sess.Exec(ctx, LangSQL, "commit"); err == nil {
		t.Fatal("COMMIT with no open transaction succeeded")
	}
	if _, err := sess.Exec(ctx, LangSQL, "begin"); err != nil {
		t.Fatal(err)
	}
	if !sess.InTx() {
		t.Fatal("session not in transaction after BEGIN")
	}
	if _, err := sess.Exec(ctx, LangSQL, "begin"); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	if _, err := sess.Exec(ctx, LangSQL, "insert into R values (1)"); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes through the session surface.
	if got := countAll(t, sess.QueryAll, LangSQL, "select R.A from R"); got != 1 {
		t.Fatalf("session sees %d rows in tx, want 1", got)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 0 {
		t.Fatalf("uncommitted session write leaked (%d rows)", got)
	}
	res, err := sess.Exec(ctx, LangSQL, "commit")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation == 0 {
		t.Fatal("COMMIT reported generation 0")
	}
	if sess.InTx() {
		t.Fatal("session still in transaction after COMMIT")
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 1 {
		t.Fatalf("committed rows = %d, want 1", got)
	}
	// ROLLBACK path.
	if _, err := sess.Exec(ctx, LangSQL, "begin transaction"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, LangSQL, "delete from R"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, LangSQL, "rollback"); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 1 {
		t.Fatalf("rollback lost committed data: rows = %d, want 1", got)
	}
}

// TestSessionStatementFollowsTransactions pins what statements prepared
// once from a session read: outside a transaction the data committed by
// the time they run; inside one the transaction's base snapshot plus its
// own writes; after COMMIT everything again.
func TestSessionStatementFollowsTransactions(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A"), relation.New("S", "B"))
	sess := db.NewSession()
	defer sess.Close()
	count := map[string]*Stmt{}
	for _, tbl := range []string{"R", "S"} {
		st, err := sess.Prepare(LangSQL, "select count(*) n from "+tbl)
		if err != nil {
			t.Fatal(err)
		}
		count[tbl] = st
	}
	sees := func(when, tbl string, want int64) {
		t.Helper()
		rel, err := count[tbl].QueryAll(ctx)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got := rel.Tuples()[0][0].AsInt(); got != want {
			t.Fatalf("%s: statement counts %d row(s) in %s, want %d", when, got, tbl, want)
		}
	}
	// Another writer commits: the out-of-tx statement sees it.
	mustExec(t, db, LangSQL, "insert into S values (1)")
	sees("outside a transaction, after a concurrent commit", "S", 1)
	if err := sess.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	// In-tx: a concurrent commit stays invisible (snapshot isolation),
	// the session's own write does not. The concurrent writer touches S
	// only, so the session's R-write still commits.
	mustExec(t, db, LangSQL, "insert into S values (2)")
	sees("inside the transaction, after a concurrent commit", "S", 1)
	if _, err := sess.Exec(ctx, LangSQL, "insert into R values (3)"); err != nil {
		t.Fatal(err)
	}
	sees("inside the transaction, after its own write", "R", 1)
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != 0 {
		t.Fatalf("uncommitted write visible outside the transaction (%d rows)", got)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	sees("after COMMIT", "R", 1)
	sees("after COMMIT", "S", 2)
}

func TestAutocommitRetriesOnConflict(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A"))
	// A commit takes microseconds, so left alone the writers may never
	// overlap. The hook runs inside every commit, before the new snapshot
	// is published; yielding there lets the others begin on the head it
	// is about to replace, which is the conflict under test.
	db.Store().SetCommitHook(func(uint64, []relation.LogOp) error { runtime.Gosched(); return nil })
	var wg sync.WaitGroup
	const writers, per = 8, 25
	errs := make(chan error, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				// 8 writers on one relation can exhaust the engine's
				// bounded retries; the contract on ErrConflict is "retry".
				src := fmt.Sprintf("insert into R values (%d)", w*per+i)
				_, err := db.Exec(ctx, LangSQL, src)
				for errors.Is(err, ErrConflict) {
					_, err = db.Exec(ctx, LangSQL, src)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := countAll(t, db.QueryAll, LangSQL, "select R.A from R"); got != writers*per {
		t.Fatalf("rows = %d, want %d", got, writers*per)
	}
	if db.Stats().ConflictRetries == 0 {
		t.Fatal("no autocommit retry ran: the writers never contended")
	}
}
