package server_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/value"
)

func wireCode(t *testing.T, err error, want string) {
	t.Helper()
	var we *server.WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a *WireError with code %s", err, want)
	}
	if we.Code != want {
		t.Fatalf("code = %s (%s), want %s", we.Code, we.Message, want)
	}
}

// TestWireExecAndKinds pins the statement-kind model on the wire:
// PrepareOK carries the kind, Exec runs DML/DDL, and kind-mismatched
// operations answer WRONG_KIND instead of a protocol error.
func TestWireExecAndKinds(t *testing.T) {
	_, addr := startServer(t, testDB(), server.Options{})
	c := dial(t, addr)

	ins, err := c.Prepare(client.LangSQL, "insert into R values ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Kind() != client.KindDML {
		t.Fatalf("INSERT kind = %v, want DML", ins.Kind())
	}
	res, err := ins.Exec(value.Int(6), value.Int(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.Generation == 0 {
		t.Fatalf("Exec result = %+v, want 1 row at a nonzero generation", res)
	}

	sel, err := c.Prepare(client.LangSQL, "select R.A from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Kind() != client.KindQuery {
		t.Fatalf("SELECT kind = %v, want query", sel.Kind())
	}
	rows, err := sel.QueryAll(value.Int(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("inserted row not visible over the wire: %d rows", len(rows))
	}

	// Exec of a query statement is a structured kind error.
	_, err = sel.Exec()
	wireCode(t, err, server.CodeWrongKind)

	// Execute (cursor) of a DML statement is a structured kind error,
	// not a protocol mismatch: Query pipelines Bind+Execute+Fetch, so
	// the error surfaces from the Execute response.
	_, err = ins.Query(value.Int(7), value.Int(70))
	wireCode(t, err, server.CodeWrongKind)

	// Cursors cannot bind to transaction control at all.
	beg, err := c.Prepare(client.LangSQL, "begin")
	if err != nil {
		t.Fatal(err)
	}
	if beg.Kind() != client.KindBegin {
		t.Fatalf("BEGIN kind = %v, want BEGIN", beg.Kind())
	}
	_, err = beg.Query()
	wireCode(t, err, server.CodeWrongKind)

	// DDL over the wire.
	if _, err := c.Exec(client.LangSQL, "create table W (K text, V int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(client.LangSQL, "insert into W values ('k', 1)"); err != nil {
		t.Fatal(err)
	}
	// Fact ops through ARC.
	if res, err := c.Exec(client.LangARC, "+P(100, 101). +P(101, 102)"); err != nil || res.RowsAffected != 2 {
		t.Fatalf("fact ops: res = %+v, err = %v", res, err)
	}
}

// TestWrongKindExecuteReleasesCursor: Execute of a DML statement answers
// WRONG_KIND and releases the cursor Bind made for it, so Stmt.Query on
// a write, however often, never fills the session's cursor cap.
func TestWrongKindExecuteReleasesCursor(t *testing.T) {
	_, addr := startServer(t, testDB(), server.Options{MaxCursors: 2})
	c := dial(t, addr)
	ins, err := c.Prepare(client.LangSQL, "insert into R values ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := c.Prepare(client.LangSQL, "select R.A from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		_, err := ins.Query(value.Int(int64(7+i)), value.Int(70))
		wireCode(t, err, server.CodeWrongKind)
		rows, err := sel.QueryAll(value.Int(1))
		if err != nil || len(rows) != 1 {
			t.Fatalf("select after %d DML Queries: %d rows, %v; want 1 row", i+1, len(rows), err)
		}
	}
}

// TestWireUpdate pins the UPDATE round trip on the wire: PrepareOK
// reports DML, Exec rewrites matched rows in place, and the new values
// are visible to a follow-up query on the same connection.
func TestWireUpdate(t *testing.T) {
	db := engine.Open(relation.New("Acct", "id", "bal").Add(1, 100).Add(2, 200).Add(3, 300))
	_, addr := startServer(t, db, server.Options{})
	c := dial(t, addr)

	up, err := c.Prepare(client.LangSQL, "update Acct set bal = bal + $1 where Acct.id between $2 and $3")
	if err != nil {
		t.Fatal(err)
	}
	if up.Kind() != client.KindDML {
		t.Fatalf("UPDATE kind = %v, want DML", up.Kind())
	}
	res, err := up.Exec(value.Int(5), value.Int(1), value.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 || res.Generation == 0 {
		t.Fatalf("Exec result = %+v, want 2 rows at a nonzero generation", res)
	}

	rows, _, err := c.Query(client.LangSQL, "select Acct.id, Acct.bal from Acct where Acct.bal = $1", value.Int(105))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Fatalf("updated row not visible over the wire: %v", rows)
	}
	// Query on a DML statement stays a structured kind error.
	_, err = up.Query(value.Int(1), value.Int(1), value.Int(1))
	wireCode(t, err, server.CodeWrongKind)
}

// TestWireTransactions pins BEGIN/COMMIT/ROLLBACK frames: isolation
// until commit, read-your-writes through the same connection (including
// a statement prepared before BEGIN), conflict and tx-state errors.
func TestWireTransactions(t *testing.T) {
	db := engine.Open(relation.New("Acct", "id", "bal").Add(1, 100).Add(2, 100))
	_, addr := startServer(t, db, server.Options{})
	a := dial(t, addr)
	b := dial(t, addr)

	// Prepared before BEGIN; must re-resolve inside the transaction.
	sum, err := a.Prepare(client.LangSQL, "select sum(Acct.bal) from Acct")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.Commit(); err == nil {
		t.Fatal("COMMIT with no transaction succeeded")
	} else {
		wireCode(t, err, server.CodeTx)
	}

	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(client.LangSQL, "insert into Acct values (3, 50)"); err != nil {
		t.Fatal(err)
	}
	rows, err := sum.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0]; got.AsInt() != 250 {
		t.Fatalf("in-tx sum = %v, want 250 (read-your-writes)", got)
	}
	// The other connection still sees the pre-transaction state.
	bRows, _, err := b.Query(client.LangSQL, "select sum(Acct.bal) from Acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := bRows[0][0]; got.AsInt() != 200 {
		t.Fatalf("uncommitted write leaked to another session: sum = %v", got)
	}
	gen, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("CommitOK reported generation 0")
	}
	bRows, _, err = b.Query(client.LangSQL, "select sum(Acct.bal) from Acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := bRows[0][0]; got.AsInt() != 250 {
		t.Fatalf("committed write invisible to another session: sum = %v", got)
	}

	// Rollback discards.
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(client.LangSQL, "delete from Acct"); err != nil {
		t.Fatal(err)
	}
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}
	bRows, _, err = b.Query(client.LangSQL, "select sum(Acct.bal) from Acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := bRows[0][0]; got.AsInt() != 250 {
		t.Fatalf("rolled-back delete leaked: sum = %v", got)
	}

	// First-committer-wins across connections.
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(client.LangSQL, "insert into Acct values (10, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(client.LangSQL, "insert into Acct values (11, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = b.Commit()
	wireCode(t, err, server.CodeConflict)
	// b's transaction is over; its session keeps working.
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestWireCursorStreamsPreDeleteSnapshot is the acceptance pin: a
// cursor opened before a concurrent committed DELETE streams the
// pre-delete snapshot to completion.
func TestWireCursorStreamsPreDeleteSnapshot(t *testing.T) {
	r := relation.New("Big", "N")
	const total = 500
	for i := 0; i < total; i++ {
		r.Add(i)
	}
	_, addr := startServer(t, engine.Open(r), server.Options{FetchRows: 32})
	reader := dial(t, addr)
	writer := dial(t, addr)

	sel, err := reader.Prepare(client.LangSQL, "select Big.N from Big")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.Query()
	if err != nil {
		t.Fatal(err)
	}
	// Pull a few batches, then let the DELETE commit mid-stream.
	n := 0
	for n < 100 && rows.Next() {
		n++
	}
	res, err := writer.Exec(client.LangSQL, "delete from Big where Big.N < 400")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 400 {
		t.Fatalf("delete removed %d rows, want 400", res.RowsAffected)
	}
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("cursor streamed %d rows, want the full pre-delete %d", n, total)
	}
	// A fresh cursor sees the post-delete state.
	after, err := sel.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != total-400 {
		t.Fatalf("fresh cursor sees %d rows, want %d", len(after), total-400)
	}
}

// TestWirePreparedOnceReadsEveryCommit pins the statement contract on
// the wire: a point read prepared once answers from the data committed
// by each Execute — whether another connection wrote an unrelated table
// or the one it reads — and none of those commits costs it a Prepare.
func TestWirePreparedOnceReadsEveryCommit(t *testing.T) {
	db := engine.Open(relation.New("R", "k", "v"), relation.New("Other", "k"))
	_, addr := startServer(t, db, server.Options{})
	reader := dial(t, addr)
	writer := dial(t, addr)
	sel, err := reader.Prepare(client.LangSQL, "select R.v from R where R.k = $1")
	if err != nil {
		t.Fatal(err)
	}
	insR, err := writer.Prepare(client.LangSQL, "insert into R values ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	insOther, err := writer.Prepare(client.LangSQL, "insert into Other values ($1)")
	if err != nil {
		t.Fatal(err)
	}
	prepares := db.Stats().Prepares
	const commits = 200
	for i := int64(0); i < commits; i++ {
		if _, err := insOther.Exec(value.Int(i)); err != nil {
			t.Fatal(err)
		}
		if rows, err := sel.QueryAll(value.Int(i)); err != nil || len(rows) != 0 {
			t.Fatalf("k=%d before its insert: rows = %v, err = %v", i, rows, err)
		}
		if _, err := insR.Exec(value.Int(i), value.Int(i*10)); err != nil {
			t.Fatal(err)
		}
		rows, err := sel.QueryAll(value.Int(i))
		if err != nil || len(rows) != 1 || rows[0][0].AsInt() != i*10 {
			t.Fatalf("k=%d after its insert: rows = %v, err = %v", i, rows, err)
		}
	}
	if got := db.Stats().Prepares - prepares; got != 0 {
		t.Fatalf("%d commits cost %d Prepare(s), want none", 2*commits, got)
	}
}

// TestWireWriterReaderStress runs 4 writer sessions committing
// interleaved DELETE+INSERT transactions against 4 reader sessions
// streaming full cursors. The invariant: every reader-observed snapshot
// sums to the same constant (transfers conserve the total), conflicts
// surface as CONFLICT errors and are retried — never as corruption.
// Run under -race (the Makefile's test target does).
func TestWireWriterReaderStress(t *testing.T) {
	const (
		accounts = 8
		each     = 100
		total    = accounts * each
		writers  = 4
		readers  = 4
		transfer = 25 // committed transfers per writer
	)
	acct := relation.New("Acct", "id", "bal")
	for i := 0; i < accounts; i++ {
		acct.Add(i, each)
	}
	_, addr := startServer(t, engine.Open(acct), server.Options{FetchRows: 3})

	var wg, writerWG sync.WaitGroup
	var writersDone atomic.Bool
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			committed := 0
			for attempt := 0; committed < transfer; attempt++ {
				if attempt > transfer*100 {
					errCh <- fmt.Errorf("writer %d: starved after %d attempts", w, attempt)
					return
				}
				from := (w + attempt) % accounts
				to := (from + 1 + w) % accounts
				if from == to {
					continue
				}
				if _, err := c.Begin(); err != nil {
					errCh <- err
					return
				}
				ok, err := transferOnce(c, from, to)
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if !ok {
					continue // lost first-committer-wins; retry
				}
				committed++
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			sel, err := c.Prepare(client.LangSQL, "select Acct.id, Acct.bal from Acct")
			if err != nil {
				errCh <- err
				return
			}
			for scan := 0; ; scan++ {
				rows, err := sel.Query()
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				sum, n := int64(0), 0
				for rows.Next() {
					sum += rows.Values()[1].AsInt()
					n++
				}
				if err := rows.Err(); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if sum != total || n != accounts {
					errCh <- fmt.Errorf("reader %d scan %d: torn read — sum %d over %d rows, want %d over %d", r, scan, sum, n, total, accounts)
					return
				}
				// Keep scanning while writers run; a few extra scans
				// after they finish check the settled state too.
				if writersDone.Load() && scan >= 10 {
					return
				}
			}
		}(r)
	}

	go func() {
		writerWG.Wait()
		writersDone.Store(true)
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// transferOnce moves 1 unit between two accounts inside an open
// transaction and commits. Returns false (and no error) when the commit
// lost first-committer-wins.
func transferOnce(c *client.Conn, from, to int) (bool, error) {
	bal, err := c.Prepare(client.LangSQL, "select Acct.bal from Acct where Acct.id = $1")
	if err != nil {
		return false, err
	}
	fromRows, err := bal.QueryAll(value.Int(int64(from)))
	if err != nil {
		return false, err
	}
	toRows, err := bal.QueryAll(value.Int(int64(to)))
	if err != nil {
		return false, err
	}
	if len(fromRows) != 1 || len(toRows) != 1 {
		return false, fmt.Errorf("transfer read %d/%d balance rows, want 1/1", len(fromRows), len(toRows))
	}
	fromBal := fromRows[0][0].AsInt()
	toBal := toRows[0][0].AsInt()
	if _, err := c.Exec(client.LangSQL, "delete from Acct where Acct.id = $1", value.Int(int64(from))); err != nil {
		return false, err
	}
	if _, err := c.Exec(client.LangSQL, "delete from Acct where Acct.id = $1", value.Int(int64(to))); err != nil {
		return false, err
	}
	if _, err := c.Exec(client.LangSQL, "insert into Acct values ($1, $2)", value.Int(int64(from)), value.Int(fromBal-1)); err != nil {
		return false, err
	}
	if _, err := c.Exec(client.LangSQL, "insert into Acct values ($1, $2)", value.Int(int64(to)), value.Int(toBal+1)); err != nil {
		return false, err
	}
	_, err = c.Commit()
	if err != nil {
		var we *server.WireError
		if errors.As(err, &we) && we.Code == server.CodeConflict {
			return false, nil
		}
		return false, err
	}
	return true, nil
}
