package server

// An internal test: it reaches into session to plant a cursor whose
// engine Rows panics mid-stream — the one failure valid inputs can
// never produce (the fuzzers enforce that) but whose wire behavior the
// protocol promises: the panic is recovered inside Rows.Each, which the
// session's runner pushes the stream through, as a *engine.PanicError;
// the Fetch answers an INTERNAL Error frame, the cursor closes, and the
// session survives.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

func TestFetchPanicSurfacesAsInternalErrorFrame(t *testing.T) {
	db := engine.Open(relation.New("R", "A").Add(1))
	srv := New(db, Options{})
	cli, srvConn := net.Pipe()
	defer cli.Close()
	defer srvConn.Close()

	sess := &session{
		srv:     srv,
		conn:    srvConn,
		r:       bufio.NewReader(srvConn),
		w:       bufio.NewWriter(srvConn),
		ctx:     context.Background(),
		eng:     db.NewSession(),
		stmts:   map[uint32]*engine.Stmt{},
		cursors: map[uint32]*cursor{},
		greeted: true,
	}
	defer sess.stopRunners() // the session's end, which serveConn would run
	rows := engine.NewPanicRowsForTest([]string{"A"}, 1, "operator bug")
	sess.cursors[7] = &cursor{rows: rows, cols: []string{"A"}}

	var fetch Enc
	fetch.U32(7)   // cursor id
	fetch.U32(100) // max rows: past the single good row, into the panic
	handled := make(chan error, 1)
	go func() {
		err := sess.handleFetch(fetch.Bytes())
		sess.w.Flush()
		handled <- err
	}()

	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, body, err := ReadFrame(cli)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != FrameError {
		t.Fatalf("frame type = 0x%02x, want FrameError", typ)
	}
	d := NewDec(body)
	code, msg := d.Str(), d.Str()
	if code != CodeInternal {
		t.Fatalf("error code = %s, want %s (panics must be distinguishable from bad SQL)", code, CodeInternal)
	}
	if !strings.Contains(msg, "internal panic during rows") || !strings.Contains(msg, "operator bug") {
		t.Fatalf("error message = %q, want the PanicError rendering", msg)
	}

	// The fetch is a statement error, not a connection-fatal one.
	if err := <-handled; err != nil {
		t.Fatalf("handleFetch = %v, want nil (session must survive)", err)
	}
	// The cursor is gone and its Rows is closed with the PanicError.
	if _, ok := sess.cursors[7]; ok {
		t.Fatal("cursor still registered after mid-stream panic")
	}
	var pe *engine.PanicError
	if !errors.As(rows.Err(), &pe) || pe.Op != "rows" || len(pe.Stack) == 0 {
		t.Fatalf("rows.Err() = %v, want *engine.PanicError with op+stack", rows.Err())
	}
	// And the operator-facing counter ticked.
	if got := srv.metrics.PanicsRecovered.Load(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}
