package client

// Internal tests of the client's pipelining: they count the writes a
// call makes on the wire and check that a pipelined failure leaves the
// session in sync and holding nothing.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/value"
)

// countingConn counts the Write calls made on a net.Conn: one per
// flush, so one per round trip.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// pipelineDB holds R(A, B) with A = 1..5 and B = 10·A, and S(T), one
// string that a sum cannot add.
func pipelineDB() *engine.DB {
	r := relation.New("R", "A", "B")
	for i := 1; i <= 5; i++ {
		r.Add(i, 10*i)
	}
	return engine.Open(r, relation.New("S", "T").Add("x"))
}

// dialCounting serves db under opts on a loopback port and returns a
// Conn whose writes are counted, the handshake's not included.
func dialCounting(t *testing.T, db *engine.DB, opts server.Options) (*Conn, *countingConn) {
	t.Helper()
	srv := server.New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c, err := handshake(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cc.writes = 0
	return c, cc
}

const pointSQL = "select R.A, R.B from R where R.A = $1"

// TestRoundTripsPerCall pins the writes each call makes, one per round
// trip: an ad-hoc query or write is one, like a prepared query, and a
// result of several batches costs one more per further batch.
func TestRoundTripsPerCall(t *testing.T) {
	c, cc := dialCounting(t, pipelineDB(), server.Options{})
	writes := func(what string, want int, call func() error) {
		t.Helper()
		before := cc.writes
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := cc.writes - before; got != want {
			t.Errorf("%s: %d writes, want %d", what, got, want)
		}
	}
	writes("Conn.Query, one batch", 1, func() error {
		rows, _, err := c.Query(LangSQL, pointSQL, value.Int(3))
		if err == nil && len(rows) != 1 {
			t.Errorf("Conn.Query: %d rows, want 1", len(rows))
		}
		return err
	})
	writes("Conn.Exec", 1, func() error {
		_, err := c.Exec(LangSQL, "insert into R values (6, 60)")
		return err
	})
	point, err := c.Prepare(LangSQL, pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	writes("Stmt.QueryAll", 1, func() error {
		rows, err := point.QueryAll(value.Int(6))
		if err == nil && len(rows) != 1 {
			t.Errorf("Stmt.QueryAll: %d rows, want 1", len(rows))
		}
		return err
	})

	// Five rows two at a time: batches of 2, 2 and 1.
	c, cc = dialCounting(t, pipelineDB(), server.Options{FetchRows: 2})
	writes("Conn.Query, three batches", 3, func() error {
		rows, _, err := c.Query(LangSQL, "select R.A from R")
		if err == nil && len(rows) != 5 {
			t.Errorf("Conn.Query: %d rows, want 5", len(rows))
		}
		return err
	})
}

// TestPipelinedFailuresStayInSync runs each failing ad-hoc call ten
// times on a session that may hold one statement and one cursor. Each
// must answer the code the unpipelined Prepare, Query, Close sequence
// answered, read every reply it pipelined (a prepared point query on the
// same Conn still returns its row) and leave no statement or cursor
// behind (the next call could not prepare or bind otherwise).
func TestPipelinedFailuresStayInSync(t *testing.T) {
	c, _ := dialCounting(t, pipelineDB(), server.Options{MaxStmts: 1, MaxCursors: 1, FetchRows: 2})
	query := func(src string, args ...value.Value) func() error {
		return func() error { _, _, err := c.Query(LangSQL, src, args...); return err }
	}
	exec := func(src string, args ...value.Value) func() error {
		return func() error { _, err := c.Exec(LangSQL, src, args...); return err }
	}
	cases := []struct {
		name string
		code string // "" when the call succeeds
		call func() error
	}{
		{"unparsable text", server.CodeParse, query("select from where")},
		{"DML through Query", server.CodeWrongKind, query("insert into R values (7, 70)")},
		{"BEGIN through Query", server.CodeWrongKind, query("begin")},
		{"a parameter left unbound", server.CodeExecute, query(pointSQL)},
		{"an argument too many", server.CodeExecute, query(pointSQL, value.Int(1), value.Int(2))},
		{"an error in the first batch", server.CodeFetch, query("select sum(S.T) from S")},
		{"a query through Exec", server.CodeWrongKind, exec(pointSQL, value.Int(1))},
		{"unparsable text through Exec", server.CodeParse, exec("insert into")},
		{"a write missing its values", server.CodeExecute, exec("insert into R values ($1, $2)")},
		{"a multi-batch result", "", func() error {
			rows, cols, err := c.Query(LangSQL, "select R.A, R.B from R")
			if err == nil && (len(rows) != 5 || len(cols) != 2) {
				t.Errorf("multi-batch result: %d rows of %d columns, want 5 of 2", len(rows), len(cols))
			}
			return err
		}},
	}
	for _, tc := range cases {
		for i := range 10 {
			err := tc.call()
			var we *server.WireError
			switch {
			case tc.code == "" && err != nil:
				t.Fatalf("%s, call %d: %v", tc.name, i, err)
			case tc.code != "" && !errors.As(err, &we):
				t.Fatalf("%s, call %d: %v, want a WireError %s", tc.name, i, err, tc.code)
			case tc.code != "" && we.Code != tc.code:
				t.Fatalf("%s, call %d: code %s (%s), want %s", tc.name, i, we.Code, we.Message, tc.code)
			}
			point, err := c.Prepare(LangSQL, pointSQL)
			if err != nil {
				t.Fatalf("after %s, call %d: prepare: %v", tc.name, i, err)
			}
			rows, err := point.QueryAll(value.Int(4))
			if err != nil || len(rows) != 1 || rows[0][1].AsInt() != 40 {
				t.Fatalf("after %s, call %d: point query = %v, %v; want [[4 40]]", tc.name, i, rows, err)
			}
			if err := point.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
