// Package client is the Go client for the arcserve wire protocol: it
// dials a server, prepares statements in any of the three languages, and
// streams results through a Rows-style cursor. The server answers
// pipelined frames strictly in order, so the client writes a request's
// frames in one flush and reads their replies back in order: a prepared
// query (Bind+Execute+first Fetch) is one round trip, and so is an
// ad-hoc Conn.Query (Prepare, then those three, then Close of the
// statement) or Conn.Exec (Prepare+Exec+Close). A result larger than
// one batch costs one more round trip per further batch.
//
// A result costs per batch, not per row: a Conn reads every frame into
// one reused buffer, and each Rows batch decodes into a single value
// array that the batch's rows are windows onto. A row returned by
// Rows.Values or QueryAll therefore stays valid after the cursor moves
// on or closes, and belongs to the caller.
//
// A Conn is bound to one goroutine (like a database/sql driver
// connection); open one Conn per concurrent session.
package client

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/server"
	"repro/internal/value"
)

// Lang mirrors the wire language byte (aliasing the server package's
// constants so the mapping has one source of truth).
type Lang byte

const (
	LangSQL     = Lang(server.WireLangSQL)
	LangARC     = Lang(server.WireLangARC)
	LangDatalog = Lang(server.WireLangDatalog)
)

// Conn is one client session.
type Conn struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	nextID  uint32
	lastErr error  // connection-fatal error; everything fails after it
	in      []byte // the frame last read (server.ReadFrameInto)
}

// Dial connects and performs the Hello handshake.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc)
}

// handshake performs the Hello exchange over nc, closing it on failure.
func handshake(nc net.Conn) (*Conn, error) {
	c := &Conn{conn: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	var e server.Enc
	e.U32(server.ProtocolVersion)
	e.Str("repro-go-client")
	if err := c.roundTrip(server.FrameHello, e.Bytes(), server.FrameHelloOK, nil); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// fatal records a connection-level failure.
func (c *Conn) fatal(err error) error {
	if c.lastErr == nil {
		c.lastErr = err
	}
	return err
}

// send writes a frame into the buffered writer (no flush). A failure is
// connection-fatal, so the next recv reports it.
func (c *Conn) send(typ byte, payload []byte) {
	if c.lastErr != nil {
		return
	}
	if err := server.WriteFrame(c.w, typ, payload); err != nil {
		c.fatal(err)
	}
}

// recv flushes pending writes and reads one response frame, decoding
// Error frames into *server.WireError (which is NOT connection-fatal:
// the server keeps the session open for statement-level errors). The
// body is valid until the next recv.
func (c *Conn) recv(want byte) ([]byte, error) {
	if c.lastErr != nil {
		return nil, c.lastErr
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fatal(err)
	}
	typ, body, err := server.ReadFrameInto(c.r, &c.in)
	if err != nil {
		return nil, c.fatal(err)
	}
	if typ == server.FrameError {
		d := server.NewDec(body)
		we := &server.WireError{Code: d.Str(), Message: d.Str()}
		if d.Err() != nil {
			return nil, c.fatal(d.Err())
		}
		return nil, we
	}
	if typ != want {
		return nil, c.fatal(fmt.Errorf("client: expected frame 0x%02x, got 0x%02x", want, typ))
	}
	return body, nil
}

// roundTrip sends one frame and decodes the matching response.
func (c *Conn) roundTrip(typ byte, payload []byte, want byte, into func(*server.Dec) error) error {
	c.send(typ, payload)
	return c.recvInto(want, into)
}

// recvInto reads one response and decodes its body with into (nil
// ignores the body).
func (c *Conn) recvInto(want byte, into func(*server.Dec) error) error {
	body, err := c.recv(want)
	if err != nil {
		return err
	}
	if into == nil {
		return nil
	}
	d := server.NewDec(body)
	if err := into(&d); err != nil {
		return err
	}
	if d.Err() != nil {
		return c.fatal(d.Err())
	}
	return nil
}

// Kind mirrors the statement-kind byte PrepareOK carries (aliasing the
// server package's constants).
type Kind byte

const (
	KindQuery    = Kind(server.WireKindQuery)
	KindDML      = Kind(server.WireKindDML)
	KindDDL      = Kind(server.WireKindDDL)
	KindBegin    = Kind(server.WireKindBegin)
	KindCommit   = Kind(server.WireKindCommit)
	KindRollback = Kind(server.WireKindRollback)
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindDML:
		return "DML"
	case KindDDL:
		return "DDL"
	case KindBegin:
		return "BEGIN"
	case KindCommit:
		return "COMMIT"
	case KindRollback:
		return "ROLLBACK"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Result reports what a write changed: affected row occurrences plus
// the commit generation the write became visible at (0 while buffered
// inside an open transaction).
type Result struct {
	RowsAffected int64
	Generation   uint64
}

// Stmt is a server-side prepared statement handle owned by this session.
type Stmt struct {
	conn    *Conn
	id      uint32
	kind    Kind
	cols    []string
	nparams int
}

// Prepare prepares src on the server.
func (c *Conn) Prepare(lang Lang, src string) (*Stmt, error) {
	return c.prepare(lang, src, "")
}

// PrepareDatalog prepares a Datalog program selecting the returned
// predicate (empty = the last rule's head).
func (c *Conn) PrepareDatalog(src, pred string) (*Stmt, error) {
	return c.prepare(LangDatalog, src, pred)
}

func (c *Conn) prepare(lang Lang, src, pred string) (*Stmt, error) {
	s := c.sendPrepare(lang, src, pred)
	if err := s.recvPrepare(); err != nil {
		return nil, err
	}
	return s, nil
}

// sendPrepare writes a Prepare frame under a new statement id (no
// flush) and returns the handle its reply fills in.
func (c *Conn) sendPrepare(lang Lang, src, pred string) *Stmt {
	c.nextID++
	s := &Stmt{conn: c, id: c.nextID}
	var e server.Enc
	e.U32(s.id)
	e.U8(byte(lang))
	e.Str(pred)
	e.Str(src)
	c.send(server.FramePrepare, e.Bytes())
	return s
}

// recvPrepare reads s's PrepareOK: its kind, parameter count and
// columns.
func (s *Stmt) recvPrepare() error {
	c := s.conn
	return c.recvInto(server.FramePrepareOK, func(d *server.Dec) error {
		if got := d.U32(); d.Err() == nil && got != s.id {
			return c.fatal(fmt.Errorf("client: PrepareOK for statement %d, want %d", got, s.id))
		}
		s.kind = Kind(d.U8())
		s.nparams = int(d.U32())
		ncols := int(d.U32())
		if d.Err() != nil {
			return nil
		}
		s.cols = make([]string, 0, ncols)
		for i := 0; i < ncols && d.Err() == nil; i++ {
			s.cols = append(s.cols, d.Str())
		}
		return nil
	})
}

// Columns returns the statement's output column names.
func (s *Stmt) Columns() []string { return s.cols }

// NumParams returns the number of positional parameters.
func (s *Stmt) NumParams() int { return s.nparams }

// Kind reports what the statement is (query, DML, DDL, or transaction
// control), as classified by the server at prepare time.
func (s *Stmt) Kind() Kind { return s.kind }

// Exec runs a DML/DDL statement (or SQL-level transaction control) on
// the server. Queries are rejected with WRONG_KIND — use Query.
func (s *Stmt) Exec(args ...value.Value) (Result, error) {
	s.sendExec(args)
	return s.recvExec()
}

// sendExec writes an Exec frame for s (no flush).
func (s *Stmt) sendExec(args []value.Value) {
	var e server.Enc
	e.U32(s.id)
	e.U32(uint32(len(args)))
	for _, a := range args {
		e.Val(a)
	}
	s.conn.send(server.FrameExec, e.Bytes())
}

// recvExec reads the reply to sendExec.
func (s *Stmt) recvExec() (Result, error) {
	var res Result
	err := s.conn.recvInto(server.FrameExecOK, func(d *server.Dec) error {
		res.RowsAffected = int64(d.U64())
		res.Generation = d.U64()
		return nil
	})
	return res, err
}

// ExplainAnalyze runs a query statement server-side with operator
// tracing enabled and returns the rendered executed plan (per-operator
// actual rows and timings). The rows themselves are not shipped.
func (s *Stmt) ExplainAnalyze(args ...value.Value) (string, error) {
	var e server.Enc
	e.U32(s.id)
	e.U32(uint32(len(args)))
	for _, a := range args {
		e.Val(a)
	}
	var text string
	err := s.conn.roundTrip(server.FrameAnalyze, e.Bytes(), server.FrameAnalyzeOK, func(d *server.Dec) error {
		text = d.Str()
		return nil
	})
	return text, err
}

// Close drops the server-side handle. A cursor already bound to the
// statement keeps streaming: it holds the statement, not its handle.
func (s *Stmt) Close() error {
	s.conn.sendClose(closeStmt, s.id)
	return s.conn.recvInto(server.FrameCloseOK, nil)
}

// The Close frame's kind byte.
const (
	closeStmt   = 0
	closeCursor = 1
)

// sendClose writes a Close frame for a statement or cursor id (no
// flush).
func (c *Conn) sendClose(kind byte, id uint32) {
	var e server.Enc
	e.U8(kind)
	e.U32(id)
	c.send(server.FrameClose, e.Bytes())
}

// Rows streams a query result in fetch-sized batches.
type Rows struct {
	conn     *Conn
	cursorID uint32
	cols     []string
	batch    batch
	pos      int // rows of batch consumed; the current row is pos-1
	done     bool
	closed   bool
	err      error
}

// batch is one decoded Rows frame: nrows rows of ncols values in one
// array, row i at vals[i*ncols:(i+1)*ncols].
type batch struct {
	cursorID     uint32
	done         bool
	ncols, nrows int
	vals         []value.Value
}

// row returns row i as a window onto the batch's array, capped so that
// appending to it cannot overwrite row i+1.
func (b *batch) row(i int) []value.Value {
	lo, hi := i*b.ncols, (i+1)*b.ncols
	return b.vals[lo:hi:hi]
}

// decodeBatch decodes a Rows payload into a fresh value array, so rows
// of earlier batches stay valid. Every value takes at least one payload
// byte, so a header claiming more values than the payload holds is
// rejected before anything is allocated.
func decodeBatch(body []byte) (batch, error) {
	d := server.NewDec(body)
	b := batch{cursorID: d.U32(), done: d.U8() == 1}
	ncols, nrows := d.U32(), d.U32()
	if d.Err() != nil {
		return batch{}, d.Err()
	}
	if uint64(ncols)*uint64(nrows) > uint64(len(body)) {
		return batch{}, fmt.Errorf("client: Rows frame claims %d rows of %d columns in %d bytes", nrows, ncols, len(body))
	}
	b.ncols, b.nrows = int(ncols), int(nrows)
	b.vals = make([]value.Value, b.ncols*b.nrows)
	d.Vals(b.vals)
	if err := d.Done(); err != nil {
		return batch{}, err
	}
	return b, nil
}

// Query binds args, executes, and requests the first batch — pipelined
// as Bind+Execute+Fetch in one write, then the three responses read back
// in order.
func (s *Stmt) Query(args ...value.Value) (*Rows, error) {
	return s.recvQuery(s.sendQuery(args))
}

// sendQuery writes Bind+Execute+first-Fetch for a new cursor over s (no
// flush) and returns the cursor's id.
func (s *Stmt) sendQuery(args []value.Value) uint32 {
	c := s.conn
	c.nextID++
	curID := c.nextID
	var e server.Enc
	e.U32(curID)
	e.U32(s.id)
	e.U32(uint32(len(args)))
	for _, a := range args {
		e.Val(a)
	}
	c.send(server.FrameBind, e.Bytes())
	e = server.Enc{}
	e.U32(curID)
	c.send(server.FrameExecute, e.Bytes())
	c.sendFetch(curID)
	return curID
}

// recvQuery reads the three replies sendQuery pipelined for cursor
// curID and returns the cursor holding its first batch. A failed Bind or
// Execute is followed by unknown-cursor errors for the frames behind it;
// those are read too, so the session stays in sync.
func (s *Stmt) recvQuery(curID uint32) (*Rows, error) {
	c := s.conn
	if _, err := c.recv(server.FrameBindOK); err != nil {
		_, _ = c.recv(server.FrameExecuteOK)
		_, _ = c.recv(server.FrameRows)
		return nil, fmt.Errorf("bind: %w", err)
	}
	if _, err := c.recv(server.FrameExecuteOK); err != nil {
		_, _ = c.recv(server.FrameRows)
		return nil, err
	}
	r := &Rows{conn: c, cursorID: curID, cols: s.cols}
	if err := r.readBatch(); err != nil {
		return nil, err
	}
	return r, nil
}

// sendFetch writes a Fetch frame for the server's default batch size
// (no flush).
func (c *Conn) sendFetch(curID uint32) {
	var e server.Enc
	e.U32(curID)
	e.U32(0)
	c.send(server.FrameFetch, e.Bytes())
}

// readBatch consumes one Rows frame as the current batch. A frame that
// does not decode, or answers another cursor, is connection-fatal.
func (r *Rows) readBatch() error {
	body, err := r.conn.recv(server.FrameRows)
	var b batch
	if err == nil {
		b, err = decodeBatch(body)
		if err == nil && b.cursorID != r.cursorID {
			err = fmt.Errorf("client: Rows for cursor %d, want %d", b.cursorID, r.cursorID)
		}
		if err != nil {
			err = r.conn.fatal(err)
		}
	}
	if err != nil {
		r.err, r.done = err, true
		return err
	}
	r.batch, r.pos, r.done = b, 0, b.done
	return nil
}

// fetch replaces the current batch with the server's next one,
// reporting false once the stream is done, closed or failed.
func (r *Rows) fetch() bool {
	if r.done || r.closed || r.err != nil {
		return false
	}
	r.conn.sendFetch(r.cursorID)
	return r.readBatch() == nil
}

// Next advances to the next row, fetching the next batch over the wire
// when the buffered one is drained.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for r.pos >= r.batch.nrows {
		if !r.fetch() {
			return false
		}
	}
	r.pos++
	return true
}

// Values returns the current row. It is not copied, and it need not be:
// the row is a window onto its batch's array, which no later Next or
// Close reuses, so the caller may keep it.
func (r *Rows) Values() []value.Value {
	if r.pos == 0 || r.pos > r.batch.nrows {
		return nil
	}
	return r.batch.row(r.pos - 1)
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Err reports the first error the stream hit.
func (r *Rows) Err() error {
	if we, ok := r.err.(*server.WireError); ok {
		return we
	}
	return r.err
}

// Close releases the server-side cursor (a no-op when the stream already
// finished, since the server auto-closes exhausted cursors).
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.done || r.err != nil {
		return nil
	}
	r.conn.sendClose(closeCursor, r.cursorID)
	return r.conn.recvInto(server.FrameCloseOK, nil)
}

// QueryAll is the convenience bulk form.
func (s *Stmt) QueryAll(args ...value.Value) ([][]value.Value, error) {
	rows, err := s.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows.all()
}

// all drains the cursor from its current batch on and closes it.
// Batches are kept whole and cut into rows once the total is known, so
// the result is allocated once, at its final size.
func (r *Rows) all() ([][]value.Value, error) {
	batches := []batch{r.batch}
	total := r.batch.nrows
	for r.fetch() {
		batches = append(batches, r.batch)
		total += r.batch.nrows
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	var out [][]value.Value
	if total > 0 {
		out = make([][]value.Value, 0, total)
	}
	for i := range batches {
		for j := range batches[i].nrows {
			out = append(out, batches[i].row(j))
		}
	}
	return out, r.Close()
}

// Exec is the one-shot write convenience: Prepare, Exec and Close of the
// statement in one write, then their three replies read in order — one
// round trip. The statement is closed whether or not Exec succeeds, so
// failures do not pile handles up against the server's per-session
// limit. A failed Prepare makes the Exec behind it answer UNKNOWN_STMT;
// the first error is the one returned.
func (c *Conn) Exec(lang Lang, src string, args ...value.Value) (Result, error) {
	s := c.sendPrepare(lang, src, "")
	s.sendExec(args)
	c.sendClose(closeStmt, s.id)
	perr := s.recvPrepare()
	res, err := s.recvExec()
	cerr := c.recvInto(server.FrameCloseOK, nil)
	switch {
	case perr != nil:
		return Result{}, perr
	case err != nil:
		return Result{}, err
	}
	return res, cerr
}

// Begin opens the connection's transaction, returning the snapshot
// generation it reads from. Statements prepared before BEGIN remain
// usable inside the transaction: the server re-resolves them against
// the transaction's overlay.
func (c *Conn) Begin() (uint64, error) {
	var gen uint64
	err := c.roundTrip(server.FrameBegin, nil, server.FrameBeginOK, func(d *server.Dec) error {
		gen = d.U64()
		return nil
	})
	return gen, err
}

// Commit publishes the connection's transaction, returning the new
// commit generation. A first-committer-wins loss surfaces as a
// *server.WireError with code CONFLICT; either way the transaction is
// over.
func (c *Conn) Commit() (uint64, error) {
	var gen uint64
	err := c.roundTrip(server.FrameCommit, nil, server.FrameCommitOK, func(d *server.Dec) error {
		gen = d.U64()
		return nil
	})
	return gen, err
}

// Rollback discards the connection's transaction.
func (c *Conn) Rollback() error {
	return c.roundTrip(server.FrameRollback, nil, server.FrameRollbackOK, nil)
}

// Query is the one-shot convenience: Prepare, Bind, Execute, the first
// Fetch and Close of the statement in one write, then their five replies
// read in order — one round trip when the result fits one batch, and one
// more per further batch. The statement is closed on every path; its
// cursor goes on streaming after the Close, since it holds the statement
// itself. A failed Prepare makes the frames behind it answer
// UNKNOWN_STMT and UNKNOWN_CURSOR; the first error is the one returned.
func (c *Conn) Query(lang Lang, src string, args ...value.Value) ([][]value.Value, []string, error) {
	s := c.sendPrepare(lang, src, "")
	curID := s.sendQuery(args)
	c.sendClose(closeStmt, s.id)
	perr := s.recvPrepare()
	rows, err := s.recvQuery(curID)
	cerr := c.recvInto(server.FrameCloseOK, nil)
	switch {
	case perr != nil:
		return nil, nil, perr
	case err != nil:
		return nil, nil, err
	}
	out, err := rows.all()
	if err != nil {
		return nil, nil, err
	}
	return out, s.cols, cerr
}
