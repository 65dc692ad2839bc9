package server_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/value"
)

// scanRows is the size of the range the fetch tests ship: 40 batches
// under FetchRows 256, one under the default byte bound.
const scanRows = 10_000

// scanSQL ships a string per row, which the client decodes into a
// string of its own; intScanSQL ships none, so decoding it allocates per
// batch only.
const (
	scanSQL    = "select S.A, S.C from S where S.A >= $1 and S.A < $2"
	intScanSQL = "select S.A, S.B from S where S.A >= $1 and S.A < $2"
)

// scanDB holds S(A, B, C) with A = i, B = 10·i and C = "s<i>" for
// i < scanRows, and Wide, whose first row is a 2 MiB string no frame can
// carry.
func scanDB() *engine.DB {
	s := relation.New("S", "A", "B", "C")
	for i := 0; i < scanRows; i++ {
		s.Add(i, 10*i, fmt.Sprintf("s%d", i))
	}
	wide := relation.New("Wide", "S")
	wide.Add(strings.Repeat("x", 2<<20))
	wide.Add("small")
	return engine.Open(s, wide, smallR())
}

// checkScan fails unless rows are scanSQL's answer over all of S, in
// order.
func checkScan(t *testing.T, rows [][]value.Value) {
	t.Helper()
	if len(rows) != scanRows {
		t.Fatalf("scan returned %d rows, want %d", len(rows), scanRows)
	}
	for i, row := range rows {
		if len(row) != 2 || row[0].Kind() != value.KindInt || row[0].AsInt() != int64(i) ||
			row[1].Kind() != value.KindString || row[1].AsString() != fmt.Sprintf("s%d", i) {
			t.Fatalf("row %d = %v, want [%d s%d]", i, row, i, i)
		}
	}
}

// TestFetchCostsPerBatch pins that no hop allocates per row: draining a
// 10 000-row range of ints in process allocates at most 64 times in all
// (the plan's projection writes every row into one tuple), and through
// client.Stmt.QueryAll at most 16 per Fetch batch more. Both ends run in
// this process, so AllocsPerRun counts the server's encoding and the
// client's decoding together. Under FetchRows 256 the range takes 40
// batches; by default its 180 000 bytes fit under the byte bound, so it
// takes one, and allocates less in all.
func TestFetchCostsPerBatch(t *testing.T) {
	db := scanDB()
	local, err := db.Prepare(engine.LangSQL, intScanSQL)
	if err != nil {
		t.Fatal(err)
	}
	inProcess := testing.AllocsPerRun(5, func() {
		rows, err := local.Query(context.Background(), 0, scanRows)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			_ = rows.Row()
			n++
		}
		if err := rows.Close(); err != nil || n != scanRows {
			t.Fatalf("in-process drain: %d rows, err %v", n, err)
		}
	})
	if inProcess > 64 {
		t.Fatalf("draining %d rows in process allocates %.0f times; want ≤ 64, none per row", scanRows, inProcess)
	}
	overWire := func(opts server.Options, wantBatches uint64) float64 {
		t.Helper()
		srv, addr := startServer(t, db, opts)
		wire, err := dial(t, addr).Prepare(client.LangSQL, intScanSQL)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := value.Int(0), value.Int(scanRows)
		before := srv.Snapshot().FetchBatches
		rows, err := wire.QueryAll(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != scanRows || rows[scanRows-1][1].AsInt() != 10*(scanRows-1) {
			t.Fatalf("int scan: %d rows, last %v", len(rows), rows[len(rows)-1])
		}
		if batches := srv.Snapshot().FetchBatches - before; batches != wantBatches {
			t.Fatalf("FetchRows %d: the scan took %d batches, want %d", opts.FetchRows, batches, wantBatches)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := wire.QueryAll(lo, hi); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("FetchRows %d: %.0f allocations over the wire, %.0f in process, %d batches",
			opts.FetchRows, allocs, inProcess, wantBatches)
		if extra := allocs - inProcess; extra > float64(16*wantBatches) {
			t.Fatalf("FetchRows %d: the wire adds %.0f allocations over %d batches (%.0f over the wire, %.0f in process); want ≤ 16 per batch",
				opts.FetchRows, extra, wantBatches, allocs, inProcess)
		}
		return allocs
	}
	capped := overWire(server.Options{FetchRows: 256}, scanRows/256+1)
	if byBytes := overWire(server.Options{}, 1); byBytes >= capped {
		t.Fatalf("one batch allocates %.0f times, 40 batches %.0f; want fewer", byBytes, capped)
	}
}

// pointReadAllocs is what one prepared 1-row read costs over the wire,
// client and server together: Bind, Execute and a one-row Fetch. Before
// a session drove its cursors on a reused runner it was 47: each cursor
// started its own pull coroutine.
const pointReadAllocs = 35

// TestPointReadAllocations pins the per-cursor cost of the wire at
// pointReadAllocs. A cursor that starts a coroutine of its own again, or
// any other allocation per cursor or per Fetch, fails it.
func TestPointReadAllocations(t *testing.T) {
	_, addr := startServer(t, testDB(), server.Options{})
	c := dial(t, addr)
	point, err := c.Prepare(client.LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		rows, err := point.QueryAll(value.Int(3))
		if err != nil || len(rows) != 1 {
			t.Fatalf("point read: %v, %v", rows, err)
		}
	}
	read() // the session's runner is made here, once
	if got := testing.AllocsPerRun(100, read); got > pointReadAllocs {
		t.Fatalf("a prepared point read allocates %.0f times over the wire, want ≤ %d", got, pointReadAllocs)
	} else {
		t.Logf("a prepared point read allocates %.0f times over the wire", got)
	}
}

// TestFetchedRowsOutliveTheCursor pins the client's ownership contract:
// a row from the first batch is unchanged after every later batch has
// been read through the same connection buffer, and after the cursor is
// closed. FetchRows 256 makes the range 40 batches.
func TestFetchedRowsOutliveTheCursor(t *testing.T) {
	_, addr := startServer(t, scanDB(), server.Options{FetchRows: 256})
	c := dial(t, addr)
	stmt, err := c.Prepare(client.LangSQL, scanSQL)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query(value.Int(0), value.Int(scanRows))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]value.Value
	for rows.Next() {
		kept = append(kept, rows.Values())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// A caller appending to a kept row must not overwrite its neighbour.
	_ = append(kept[0], value.Int(-1))
	checkScan(t, kept)
}

// TestSessionServesAfterOversizedRow pins that the FETCH error for a row
// no frame can carry — the one Fetch whose payload buffer the session
// drops instead of keeping — leaves the session answering a full scan
// correctly, through the same prepared handle it used before.
func TestSessionServesAfterOversizedRow(t *testing.T) {
	_, addr := startServer(t, scanDB(), server.Options{})
	c := dial(t, addr)
	scan, err := c.Prepare(client.LangSQL, scanSQL)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scan.QueryAll(value.Int(0), value.Int(scanRows))
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, rows)
	_, _, err = c.Query(client.LangSQL, "select Wide.S from Wide")
	wireCode(t, err, server.CodeFetch)
	rows, err = scan.QueryAll(value.Int(0), value.Int(scanRows))
	if err != nil {
		t.Fatalf("scan after the oversized row: %v", err)
	}
	checkScan(t, rows)
}

// TestAdhocFailuresCloseTheirStatements pins that Conn.Query and
// Conn.Exec close their one-shot statement even when it fails: twenty
// failures under a cap of eight statements must leave room for one more.
func TestAdhocFailuresCloseTheirStatements(t *testing.T) {
	_, addr := startServer(t, engine.Open(smallR()), server.Options{MaxStmts: 8})
	c := dial(t, addr)
	for i := 0; i < 20; i++ {
		var err error
		switch i % 3 {
		case 0: // a parameter left unbound fails at Execute
			_, _, err = c.Query(client.LangSQL, "select R.A from R where R.A = $1")
		case 1: // a query sent as a write
			_, err = c.Exec(client.LangSQL, "select R.A from R")
		default: // an insert with its values missing
			_, err = c.Exec(client.LangSQL, "insert into R values ($1, $2)")
		}
		if err == nil {
			t.Fatalf("failing ad-hoc statement %d succeeded", i)
		}
		if _, ok := err.(*server.WireError); !ok {
			t.Fatalf("failing ad-hoc statement %d: %v, want a statement-level WireError", i, err)
		}
	}
	rows, _, err := c.Query(client.LangSQL, "select R.A from R")
	if err != nil {
		t.Fatalf("query after 20 failed ad-hoc statements: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}
