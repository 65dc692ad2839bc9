package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// The tests below hold Rows.Each, the push form of the cursor, to Next:
// the same occurrences in the same order, the same finish (Err, the
// completion hook and its count), and no coroutine.

// eachDB holds B, whose first tuple has multiplicity 5, and a chain P
// for a recursive Datalog statement.
func eachDB() *DB {
	b := relation.New("B", "X", "Y")
	b.InsertMult(relation.Tuple{relation.Lift(7), relation.Lift(1)}, 5)
	b.Add(1, 2)
	b.InsertMult(relation.Tuple{relation.Lift(3), relation.Lift(4)}, 2)
	p := relation.New("P", "s", "t")
	for i := 0; i < 6; i++ {
		p.Add(i, i+1)
	}
	return Open(b, p)
}

// eachStmts spell streams of all three kinds Query opens: a planned SQL
// scan, an ARC collection and a recursive Datalog program.
var eachStmts = []struct {
	lang      Lang
	src, pred string
}{
	{LangSQL, "select B.X, B.Y from B", ""},
	{LangARC, "{Q(X) | ∃b ∈ B [Q.X = b.X]}", ""},
	{LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).", "A"},
}

func prepareEach(t *testing.T, db *DB, i int) *Stmt {
	t.Helper()
	c := eachStmts[i]
	var stmt *Stmt
	var err error
	if c.lang == LangDatalog {
		stmt, err = db.PrepareDatalog(c.src, c.pred)
	} else {
		stmt, err = db.Prepare(c.lang, c.src)
	}
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestEachMatchesNext: Each hands f every occurrence Next steps through,
// in order, then finishes the cursor with the hook's count.
func TestEachMatchesNext(t *testing.T) {
	db := eachDB()
	for i := range eachStmts {
		stmt := prepareEach(t, db, i)
		rows, err := stmt.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var want [][]value.Value
		for rows.Next() {
			want = append(want, rows.Values())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}

		rows, err = stmt.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		done := int64(-1)
		rows.onDone = func(n int64) { done = n }
		var got [][]value.Value
		rows.Each(func(row []value.Value) bool {
			got = append(got, append([]value.Value(nil), row...))
			return true
		})
		if err := rows.Err(); err != nil {
			t.Fatalf("%v: Err after Each = %v", eachStmts[i].lang, err)
		}
		if !equalRows(got, want) {
			t.Fatalf("%v: Each pushed %v, Next stepped %v", eachStmts[i].lang, got, want)
		}
		if done != int64(len(want)) {
			t.Fatalf("%v: completion hook saw %d rows, want %d", eachStmts[i].lang, done, len(want))
		}
		if rows.Next() || rows.Scan(new(any)) == nil {
			t.Fatalf("%v: the cursor still steps after Each", eachStmts[i].lang)
		}
	}
}

func equalRows(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEachStopsAndResumes: f returning false closes the cursor cleanly,
// also inside a bag row, and Each after Next pushes the rest of the pull
// — the current tuple's remaining occurrences first.
func TestEachStopsAndResumes(t *testing.T) {
	stmt := prepareEach(t, eachDB(), 0)
	rows, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := int64(-1)
	rows.onDone = func(n int64) { done = n }
	seen := 0
	rows.Each(func([]value.Value) bool { seen++; return seen < 3 })
	if seen != 3 || done != 3 || rows.Err() != nil || rows.Next() {
		t.Fatalf("stopped Each: %d rows seen, hook %d, err %v", seen, done, rows.Err())
	}

	rows, err = stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !rows.Next() {
			t.Fatal("Next ended early")
		}
	}
	var rest []int64
	rows.Each(func(row []value.Value) bool { rest = append(rest, row[0].AsInt()); return true })
	if want := []int64{7, 7, 7, 1, 3, 3}; !slices.Equal(rest, want) {
		t.Fatalf("Each after two Next pushed %v, want %v", rest, want)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEachRecoversPanic: a panic in the stream fails the cursor with a
// PanicError after the rows before it, and the hook still fires.
func TestEachRecoversPanic(t *testing.T) {
	rows := NewPanicRowsForTest([]string{"A"}, 3, "operator bug")
	done := int64(-1)
	rows.onDone = func(n int64) { done = n }
	seen := 0
	rows.Each(func([]value.Value) bool { seen++; return true })
	var pe *PanicError
	if !errors.As(rows.Err(), &pe) || pe.Op != "rows" || pe.Val != "operator bug" {
		t.Fatalf("Err = %v, want the rows PanicError", rows.Err())
	}
	if seen != 3 || done != 3 {
		t.Fatalf("%d rows pushed, hook saw %d; want 3 and 3", seen, done)
	}
}

// TestEachPollsCancellation: a context cancelled mid-push stops the
// stream at the next row, and Err reports the cancellation.
func TestEachPollsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := prepareEach(t, eachDB(), 0).Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	rows.Each(func([]value.Value) bool { seen++; cancel(); return true })
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if seen != 5 {
		t.Fatalf("%d rows pushed after the cancel, want the 5 occurrences of the first tuple", seen)
	}
}

// TestUnreadCursorStartsNoCoroutine: Query then Close, and Query then
// Each, never create the pull (iter.Pull2, about ten allocations); the
// first Next does.
func TestUnreadCursorStartsNoCoroutine(t *testing.T) {
	stmt := prepareEach(t, eachDB(), 0)
	ctx := context.Background()
	open := func() *Rows {
		rows, err := stmt.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	closed := open()
	closed.Close()
	pushed := open()
	pushed.Each(func([]value.Value) bool { return true })
	pulled := open()
	pulled.Next()
	pulled.Close()
	if closed.next != nil || pushed.next != nil || pulled.next == nil {
		t.Fatalf("pull created: after Close %v, after Each %v, after Next %v; want only after Next",
			closed.next != nil, pushed.next != nil, pulled.next != nil)
	}
	unread := testing.AllocsPerRun(100, func() { open().Close() })
	read := testing.AllocsPerRun(100, func() {
		rows := open()
		rows.Next()
		rows.Close()
	})
	t.Logf("Query+Close allocates %.0f times, Query+Next+Close %.0f", unread, read)
	if read-unread < 5 {
		t.Fatalf("the first Next adds %.0f allocations to Query+Close; the pull it creates costs more, so Query+Close still starts one", read-unread)
	}
}
