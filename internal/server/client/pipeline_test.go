package client

// Internal tests of the client's pipelining: they count the writes a
// call makes on the wire and check that a pipelined failure leaves the
// session in sync and holding nothing.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/value"
)

// countingConn counts the Write calls made on a net.Conn: one per
// flush, so one per round trip. It also follows the frames it reads and
// counts the Rows frames among them, with the largest Rows payload.
type countingConn struct {
	net.Conn
	writes int

	rowsFrames, maxRows int
	hdr                 []byte // the header of the frame being read, so far
	left                int    // payload bytes of that frame still to come
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.left > 0 {
			k := min(c.left, len(b))
			c.left, b = c.left-k, b[k:]
			continue
		}
		k := min(5-len(c.hdr), len(b))
		c.hdr, b = append(c.hdr, b[:k]...), b[k:]
		if len(c.hdr) == 5 {
			c.left = int(binary.BigEndian.Uint32(c.hdr[1:]))
			if c.hdr[0] == server.FrameRows {
				c.rowsFrames++
				c.maxRows = max(c.maxRows, c.left)
			}
			c.hdr = c.hdr[:0]
		}
	}
	return n, err
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

// scanDB holds Big(A, S): n rows with A = i and S a string of width
// bytes.
func scanDB(n, width int) *engine.DB {
	r := relation.New("Big", "A", "S")
	for i := range n {
		s := fmt.Sprintf("%d", i)
		r.Add(i, s+strings.Repeat("x", width-len(s)))
	}
	return engine.Open(r)
}

// TestRoundTripsPerCall pins the writes each call makes, one per round
// trip: an ad-hoc query or write is one, like a prepared query, and so
// is a 10 000-row result, which fits one batch. A result of several
// batches costs one more per further batch.
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

	// 10 000 rows of an int and a 4-byte string: 180 000 bytes, one batch.
	c, cc = dialCounting(t, scanDB(10_000, 4), server.Options{})
	scan, err := c.Prepare(LangSQL, "select Big.A, Big.S from Big")
	if err != nil {
		t.Fatal(err)
	}
	writes("Stmt.QueryAll, 10 000 rows", 1, func() error {
		rows, err := scan.QueryAll()
		if err == nil && len(rows) != 10_000 {
			t.Errorf("Stmt.QueryAll: %d rows, want 10 000", len(rows))
		}
		return err
	})
}

// TestWideResultSplitsByBytes: a result larger than the server's 256 KiB
// batch bound (2 000 rows of an int and a 200-byte string, 428 000 bytes
// encoded) still arrives in several batches, each Rows frame within
// MaxFrame, read by Rows.Next and by Stmt.QueryAll alike.
func TestWideResultSplitsByBytes(t *testing.T) {
	const n, width = 2000, 200
	c, cc := dialCounting(t, scanDB(n, width), server.Options{})
	scan, err := c.Prepare(LangSQL, "select Big.A, Big.S from Big")
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, i int, row []value.Value) {
		t.Helper()
		if len(row) != 2 || row[0].AsInt() != int64(i) || len(row[1].AsString()) != width ||
			!strings.HasPrefix(row[1].AsString(), fmt.Sprint(i)) {
			t.Fatalf("%s: row %d = %.40v", how, i, row)
		}
	}
	frames := func(how string) {
		t.Helper()
		if cc.rowsFrames < 2 || cc.maxRows > server.MaxFrame {
			t.Fatalf("%s: %d Rows frames, the largest %d bytes; want ≥ 2, each ≤ %d",
				how, cc.rowsFrames, cc.maxRows, server.MaxFrame)
		}
		t.Logf("%s: %d Rows frames, the largest %d bytes", how, cc.rowsFrames, cc.maxRows)
		cc.rowsFrames, cc.maxRows = 0, 0
	}

	cc.rowsFrames, cc.maxRows = 0, 0
	rows, err := scan.Query()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; rows.Next(); i++ {
		check("Rows.Next", i, rows.Values())
	}
	if err := rows.Close(); err != nil || i != n {
		t.Fatalf("Rows.Next: %d rows, err %v", i, err)
	}
	frames("Rows.Next")

	all, err := scan.QueryAll()
	if err != nil || len(all) != n {
		t.Fatalf("Stmt.QueryAll: %d rows, err %v", len(all), err)
	}
	for i, row := range all {
		check("Stmt.QueryAll", i, row)
	}
	frames("Stmt.QueryAll")
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
