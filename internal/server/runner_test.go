package server

// Internal tests of the runner lifecycle: they drive a session's frame
// handlers directly and look at which runner each cursor holds and which
// are idle, so a runner that is not reused, not aborted or not stopped
// shows as such, not only as a slower or leakier session.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/value"
)

// harness is one session whose responses go to a buffer.
type harness struct {
	t    *testing.T
	db   *engine.DB
	sess *session
	out  bytes.Buffer
}

func newHarness(t *testing.T, db *engine.DB) *harness {
	h := &harness{t: t, db: db}
	h.sess = &session{
		srv:     New(db, Options{}),
		w:       bufio.NewWriter(&h.out),
		ctx:     context.Background(),
		eng:     db.NewSession(),
		stmts:   map[uint32]*engine.Stmt{},
		cursors: map[uint32]*cursor{},
		greeted: true,
	}
	t.Cleanup(func() {
		h.sess.closeAllCursors()
		h.sess.stopRunners()
	})
	return h
}

// call handles one frame and returns its one response.
func (h *harness) call(typ byte, payload []byte) (byte, []byte) {
	h.t.Helper()
	if err := h.sess.handle(typ, payload); err != nil {
		h.t.Fatalf("frame 0x%02x: connection-fatal %v", typ, err)
	}
	if err := h.sess.w.Flush(); err != nil {
		h.t.Fatal(err)
	}
	rtyp, body, err := ReadFrame(&h.out)
	if err != nil || h.out.Len() != 0 {
		h.t.Fatalf("frame 0x%02x: response %v, %d bytes left over", typ, err, h.out.Len())
	}
	return rtyp, body
}

// expect handles one frame and fails unless it answers want.
func (h *harness) expect(typ byte, payload []byte, want byte) []byte {
	h.t.Helper()
	rtyp, body := h.call(typ, payload)
	if rtyp != want {
		d := NewDec(body)
		h.t.Fatalf("frame 0x%02x answered 0x%02x (%s %s), want 0x%02x", typ, rtyp, d.Str(), d.Str(), want)
	}
	return body
}

func (h *harness) prepare(id uint32, src string) {
	h.t.Helper()
	var e Enc
	e.U32(id)
	e.U8(WireLangSQL)
	e.Str("")
	e.Str(src)
	h.expect(FramePrepare, e.Bytes(), FramePrepareOK)
}

// open binds cursor cur to statement stmt and executes it.
func (h *harness) open(cur, stmt uint32) {
	h.t.Helper()
	var e Enc
	e.U32(cur)
	e.U32(stmt)
	e.U32(0)
	h.expect(FrameBind, e.Bytes(), FrameBindOK)
	e = Enc{}
	e.U32(cur)
	h.expect(FrameExecute, e.Bytes(), FrameExecuteOK)
}

// fetch asks cursor cur for up to maxRows rows.
func (h *harness) fetch(cur uint32, maxRows int) (rows [][]value.Value, done bool) {
	h.t.Helper()
	var e Enc
	e.U32(cur)
	e.U32(uint32(maxRows))
	d := NewDec(h.expect(FrameFetch, e.Bytes(), FrameRows))
	if id := d.U32(); id != cur {
		h.t.Fatalf("Rows for cursor %d, want %d", id, cur)
	}
	done = d.U8() == 1
	ncols, nrows := int(d.U32()), int(d.U32())
	for range nrows {
		row := make([]value.Value, ncols)
		for j := range row {
			row[j] = d.Val()
		}
		rows = append(rows, row)
	}
	if err := d.Done(); err != nil {
		h.t.Fatal(err)
	}
	return rows, done
}

// drain fetches cursor cur to its end, maxRows at a time, and returns
// its rows and the number of batches.
func (h *harness) drain(cur uint32, maxRows int) (rows [][]value.Value, batches int) {
	h.t.Helper()
	for {
		batch, done := h.fetch(cur, maxRows)
		rows, batches = append(rows, batch...), batches+1
		if done {
			return rows, batches
		}
	}
}

func (h *harness) closeCursor(cur uint32) {
	h.t.Helper()
	var e Enc
	e.U8(1)
	e.U32(cur)
	h.expect(FrameClose, e.Bytes(), FrameCloseOK)
}

// inProcess is src's answer read through an engine cursor.
func (h *harness) inProcess(src string) [][]value.Value {
	h.t.Helper()
	rows, err := h.db.Query(context.Background(), engine.LangSQL, src)
	if err != nil {
		h.t.Fatal(err)
	}
	var out [][]value.Value
	for rows.Next() {
		out = append(out, rows.Values())
	}
	if err := rows.Close(); err != nil {
		h.t.Fatal(err)
	}
	return out
}

func sameRows(t *testing.T, what string, got, want [][]value.Value) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(a, b []value.Value) bool {
		return slices.EqualFunc(a, b, value.Value.Equal)
	}) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

// runnerDB holds B, whose first tuple has multiplicity 5, and N, the
// integers 0..99.
func runnerDB() *engine.DB {
	b := relation.New("B", "X", "Y")
	b.InsertMult(relation.Tuple{relation.Lift(7), relation.Lift(1)}, 5)
	b.Add(1, 2)
	b.InsertMult(relation.Tuple{relation.Lift(3), relation.Lift(4)}, 2)
	n := relation.New("N", "A")
	for i := 0; i < 100; i++ {
		n.Add(i)
	}
	return engine.Open(b, n)
}

const (
	bagSQL  = "select B.X, B.Y from B"
	scanSQL = "select N.A from N"
)

// TestBagRowAcrossBatches: a bag row of multiplicity 5 split over
// batches of 1, 2 and 3 rows arrives whole, in order, and in as many
// batches as the pull loop sent: a batch ends when full, and the stream
// is not advanced past it until the next Fetch.
func TestBagRowAcrossBatches(t *testing.T) {
	h := newHarness(t, runnerDB())
	want := h.inProcess(bagSQL)
	if len(want) != 8 {
		t.Fatalf("in process: %d rows, want 8", len(want))
	}
	h.prepare(1, bagSQL)
	for _, maxRows := range []int{1, 2, 3} {
		h.open(1, 1)
		got, batches := h.drain(1, maxRows)
		sameRows(t, fmt.Sprintf("bag fetched %d at a time", maxRows), got, want)
		if wantBatches := len(want)/maxRows + 1; batches != wantBatches {
			t.Fatalf("maxRows %d: %d batches, want %d", maxRows, batches, wantBatches)
		}
	}
}

// TestRunnersInterleaveAndReuse: a cursor fetched while another is
// suspended takes a second runner; both go idle when their streams end,
// and the next two interleaved cursors reuse exactly those two.
func TestRunnersInterleaveAndReuse(t *testing.T) {
	h := newHarness(t, runnerDB())
	want := h.inProcess(scanSQL)
	h.prepare(1, scanSQL)
	var first []*runner
	for round, curs := range [][2]uint32{{1, 2}, {3, 4}} {
		var got [2][][]value.Value
		for _, c := range curs {
			h.open(c, 1)
		}
		for i, c := range curs {
			batch, _ := h.fetch(c, 1)
			got[i] = batch
		}
		a, b := h.sess.cursors[curs[0]].run, h.sess.cursors[curs[1]].run
		if a == nil || b == nil || a == b || len(h.sess.idle) != 0 {
			t.Fatalf("round %d: suspended cursors hold runners %p and %p, %d idle; want two distinct, none idle",
				round, a, b, len(h.sess.idle))
		}
		if round == 1 && !(slices.Contains(first, a) && slices.Contains(first, b)) {
			t.Fatalf("round 1 took runners %p and %p, not the idle %v", a, b, first)
		}
		for done := [2]bool{}; !done[0] || !done[1]; {
			for i, c := range curs {
				if !done[i] {
					var batch [][]value.Value
					batch, done[i] = h.fetch(c, 7)
					got[i] = append(got[i], batch...)
				}
			}
		}
		for i := range curs {
			sameRows(t, "interleaved cursor", got[i], want)
		}
		if len(h.sess.idle) != 2 || !slices.Contains(h.sess.idle, a) || !slices.Contains(h.sess.idle, b) {
			t.Fatalf("round %d: idle runners %v, want %p and %p", round, h.sess.idle, a, b)
		}
		first = slices.Clone(h.sess.idle)
	}
}

// TestSuspendedCursorClosedOrRebound: closing a suspended cursor, or
// rebinding its id, unwinds its stream and idles its runner, and the
// session then serves a full scan on that runner.
func TestSuspendedCursorClosedOrRebound(t *testing.T) {
	h := newHarness(t, runnerDB())
	want := h.inProcess(scanSQL)
	h.prepare(1, scanSQL)
	for _, how := range []string{"close", "rebind"} {
		h.open(1, 1)
		h.fetch(1, 3)
		cur := h.sess.cursors[1]
		rn := cur.run
		if rn == nil {
			t.Fatalf("%s: a cursor with rows left holds no runner", how)
		}
		if how == "close" {
			h.closeCursor(1)
		} else {
			h.open(1, 1) // rebinding id 1 releases the old portal
		}
		if cur.run != nil || !slices.Equal(h.sess.idle, []*runner{rn}) {
			t.Fatalf("%s: the old cursor holds %p, idle %v; want its runner %p idle", how, cur.run, h.sess.idle, rn)
		}
		if cur.rows.Next() || cur.rows.Err() != nil {
			t.Fatalf("%s: the old engine cursor still steps (err %v)", how, cur.rows.Err())
		}
		if how == "close" {
			h.open(1, 1)
		}
		got, _ := h.drain(1, 0)
		sameRows(t, "scan after "+how, got, want)
		if !slices.Equal(h.sess.idle, []*runner{rn}) {
			t.Fatalf("%s: idle %v after the scan, want the one runner %p", how, h.sess.idle, rn)
		}
	}
}

// TestCursorOutlivesClosedStatement: closing a statement's handle drops
// its name only. A cursor bound to it before the Close goes on streaming
// the rest of its rows, while a new Bind on the handle answers
// UNKNOWN_STMT. The client's ad-hoc Query pipelines the Close right
// behind the first Fetch and relies on this.
func TestCursorOutlivesClosedStatement(t *testing.T) {
	h := newHarness(t, runnerDB())
	want := h.inProcess(scanSQL)
	h.prepare(1, scanSQL)
	h.open(1, 1)
	first, done := h.fetch(1, 10)
	if done {
		t.Fatal("a 100-row scan was done after 10 rows")
	}
	var e Enc
	e.U8(0)
	e.U32(1)
	h.expect(FrameClose, e.Bytes(), FrameCloseOK)
	if _, ok := h.sess.stmts[1]; ok {
		t.Fatal("statement 1 is still named after its Close")
	}
	rest, _ := h.drain(1, 0)
	sameRows(t, "scan across the statement's Close", append(first, rest...), want)
	e = Enc{}
	e.U32(2)
	e.U32(1)
	e.U32(0)
	d := NewDec(h.expect(FrameBind, e.Bytes(), FrameError))
	if code := d.Str(); code != CodeUnknownStmt {
		t.Fatalf("Bind on the closed statement answered %s, want %s", code, CodeUnknownStmt)
	}
}

// TestPanicAfterFirstBatch: a stream that panics after 300 rows ships
// its first 256-row batch, answers INTERNAL on the next Fetch, and the
// session — its runner too — goes on serving. FetchRows ends the first
// batch before the panic; by bytes alone the first Fetch would reach it.
func TestPanicAfterFirstBatch(t *testing.T) {
	h := newHarness(t, runnerDB())
	h.sess.srv.opts.FetchRows = 256
	h.sess.cursors[7] = &cursor{rows: engine.NewPanicRowsForTest([]string{"A"}, 300, "operator bug"), cols: []string{"A"}}
	rows, done := h.fetch(7, 0)
	if len(rows) != 256 || done || rows[255][0].AsInt() != 255 {
		t.Fatalf("first batch: %d rows, done %v", len(rows), done)
	}
	rn := h.sess.cursors[7].run
	var e Enc
	e.U32(7)
	e.U32(0)
	d := NewDec(h.expect(FrameFetch, e.Bytes(), FrameError))
	if code := d.Str(); code != CodeInternal {
		t.Fatalf("second Fetch answered %s, want %s", code, CodeInternal)
	}
	if _, ok := h.sess.cursors[7]; ok || !slices.Equal(h.sess.idle, []*runner{rn}) {
		t.Fatalf("after the panic: cursor kept %v, idle %v; want it gone and runner %p idle", ok, h.sess.idle, rn)
	}
	h.prepare(1, scanSQL)
	h.open(1, 1)
	got, _ := h.drain(1, 0)
	sameRows(t, "scan after the panic", got, h.inProcess(scanSQL))
}

// runnerGoroutines counts the goroutines a runner's coroutine runs on.
// Other goroutines of earlier tests may still be exiting, so the count
// of all of them bounds a leak only from above.
func runnerGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("server.(*runner).loop("))
}

// TestSessionEndStopsRunners: a session that ends with a cursor
// suspended mid-stream — by the client hanging up, or by Shutdown —
// leaves no goroutine behind: the runner is aborted and stopped.
func TestSessionEndStopsRunners(t *testing.T) {
	for _, how := range []string{"hang-up", "shutdown"} {
		t.Run(how, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv := New(runnerDB(), Options{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			shutdown := func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
				<-served
			}
			defer func() {
				if how == "hang-up" {
					shutdown()
				}
			}()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			var stream bytes.Buffer
			var e Enc
			e.U32(ProtocolVersion)
			e.Str("runner test")
			WriteFrame(&stream, FrameHello, e.Bytes())
			e = Enc{}
			e.U32(1)
			e.U8(WireLangSQL)
			e.Str("")
			e.Str(scanSQL)
			WriteFrame(&stream, FramePrepare, e.Bytes())
			e = Enc{}
			e.U32(1)
			e.U32(1)
			e.U32(0)
			WriteFrame(&stream, FrameBind, e.Bytes())
			e = Enc{}
			e.U32(1)
			WriteFrame(&stream, FrameExecute, e.Bytes())
			e = Enc{}
			e.U32(1)
			e.U32(1)
			WriteFrame(&stream, FrameFetch, e.Bytes())
			if _, err := nc.Write(stream.Bytes()); err != nil {
				t.Fatal(err)
			}
			for _, want := range []byte{FrameHelloOK, FramePrepareOK, FrameBindOK, FrameExecuteOK, FrameRows} {
				if typ, _, err := ReadFrame(nc); err != nil || typ != want {
					t.Fatalf("response 0x%02x (%v), want 0x%02x", typ, err, want)
				}
			}
			if n := runnerGoroutines(); n != 1 {
				t.Fatalf("%d runner goroutines with a cursor suspended, want 1", n)
			}
			if how == "hang-up" {
				nc.Close()
				baseline++ // Serve runs on
			} else {
				shutdown()
			}
			deadline := time.Now().Add(5 * time.Second)
			for runnerGoroutines() > 0 || runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d runner goroutines and %d in all after the session ended, baseline %d",
						runnerGoroutines(), runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
