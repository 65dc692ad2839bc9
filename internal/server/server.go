package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Options tune a Server. The zero value is usable.
type Options struct {
	// FetchRows caps the rows of a batch when a Fetch frame asks for 0.
	// Zero, the default, caps none: the batch ends once it holds
	// softBatchBytes (256 KiB) of encoded rows, so a result under that
	// size travels as one Rows frame.
	FetchRows int
	// MaxStmts and MaxCursors cap what one session may hold open —
	// the resource defense against a hostile client preparing
	// statements in a loop. Defaults: 256 statements, 64 cursors.
	MaxStmts   int
	MaxCursors int
	// Logf receives connection-level diagnostics (recovered panics,
	// protocol errors). Nil discards them.
	Logf func(format string, args ...any)
}

// Server serves the wire protocol over an engine.DB. All sessions share
// the one DB (and therefore its statement cache and catalog); each
// session owns its prepared-statement handles and cursors, so one
// client's mistakes — or hostility — never disturb another's.
type Server struct {
	db      *engine.DB
	opts    Options
	metrics Metrics

	// baseCtx is the parent of every session's query context; Shutdown
	// cancels it, aborting in-flight queries through the engine's
	// existing context plumbing.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
}

// New builds a server over db.
func New(db *engine.DB, opts Options) *Server {
	if opts.MaxStmts <= 0 {
		opts.MaxStmts = 256
	}
	if opts.MaxCursors <= 0 {
		opts.MaxCursors = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:      db,
		opts:    opts,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   map[net.Conn]struct{}{},
	}
}

// DB returns the engine the server fronts.
func (s *Server) DB() *engine.DB { return s.db }

// Metrics returns the live server counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Snapshot merges the server counters with the engine's statement-cache
// stats into the metrics-endpoint shape.
func (s *Server) Snapshot() Snapshot {
	snap := s.metrics.snapshot()
	st := s.db.Stats()
	snap.StmtCachePrepares = st.Prepares
	snap.StmtCacheHits = st.CacheHits
	snap.StmtCacheLen = st.CacheLen
	snap.StmtCacheEvictions = st.CacheEvictions
	if st.Prepares > 0 {
		snap.StmtCacheHitRate = float64(st.CacheHits) / float64(st.Prepares)
	}
	snap.ExecQueries = st.QueryExecs
	snap.ExecDML = st.DMLExecs
	snap.ExecDDL = st.DDLExecs
	snap.Conflicts = st.Conflicts
	snap.ConflictRetries = st.ConflictRetries
	snap.TxBegins = st.TxBegins
	snap.TxCommits = st.TxCommits
	snap.TxRollbacks = st.TxRollbacks
	snap.SlowQueries = st.SlowQueries
	snap.StoreGeneration = st.Store.Gen
	snap.StoreCommits = st.Store.Commits
	snap.StoreConflicts = st.Store.Conflicts
	if sg := st.Storage; sg != nil {
		snap.Storage = &StorageSnapshot{
			WALRecords:       sg.WALRecords,
			WALBytes:         sg.WALBytes,
			Checkpoints:      sg.Checkpoints,
			CheckpointGen:    sg.CheckpointGen,
			BlockCacheHits:   sg.BlockCacheHits,
			BlockCacheMisses: sg.BlockCacheMisses,
			RecoverySeconds:  sg.RecoveryDuration.Seconds(),
		}
	}
	return snap
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http's contract.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown. Each connection gets
// its own session goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	// A Shutdown that raced ahead of Serve never saw the listener; honor
	// it here instead of accepting forever.
	if s.draining.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: stop accepting, cancel every in-flight
// query through the context plumbing (sessions answer their current
// frame with a SHUTDOWN/EXECUTE error), and wait for sessions to exit —
// up to ctx's deadline, after which remaining connections are closed
// forcibly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// cursor is one open result stream: the bound portal (statement + args)
// and, once Execute ran, the engine cursor it streams from. run is the
// runner suspended in its stream between Fetches, nil before the first
// Fetch and once the stream ended. elapsed accumulates Execute plus
// every Fetch, so the latency histogram reflects real execution time
// even for lazily-streamed plans.
type cursor struct {
	stmt    *engine.Stmt
	args    []any
	rows    *engine.Rows
	run     *runner
	cols    []string
	elapsed time.Duration
}

// session is one connection's state: the frames loop plus the statement
// and cursor handles this client owns.
type session struct {
	srv  *Server
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	ctx  context.Context

	// eng is the connection's engine session: transaction state lives
	// here, so BEGIN/COMMIT/ROLLBACK (frames or SQL) scope to this
	// client only.
	eng *engine.Session

	// stmts are the session's prepared handles. Each was prepared through
	// eng, so every execution reads the data current then — the session's
	// open transaction, else the committed head — with nothing to refresh
	// here.
	stmts   map[uint32]*engine.Stmt
	cursors map[uint32]*cursor
	greeted bool
	// werr is the first response-write failure (an oversized outgoing
	// frame, typically). The protocol is strictly positional, so a
	// dropped response would desync the stream — the session must die
	// instead of leaving the client waiting forever.
	werr error
	// in holds the frame being handled (ReadFrameInto) and out the Rows
	// payload a runner encodes into; both are reused frame to frame.
	in, out []byte
	// idle are the runners no cursor holds, reused cursor to cursor; a
	// Fetch takes a new one only while every runner is suspended in
	// another cursor's stream, so at most MaxCursors exist.
	idle []*runner
}

// serveConn runs one session to completion. The deferred recover is the
// outermost backstop: even a bug in the server's own frame handling
// costs one connection, never the process.
func (s *Server) serveConn(conn net.Conn) {
	s.metrics.ActiveSessions.Add(1)
	s.metrics.TotalSessions.Add(1)
	// Wake the blocking frame read when Shutdown cancels the base
	// context, so idle sessions drain promptly.
	stopWatch := context.AfterFunc(s.baseCtx, func() {
		conn.SetReadDeadline(time.Now())
	})
	sess := &session{
		srv:     s,
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		ctx:     s.baseCtx,
		eng:     s.db.NewSession(),
		stmts:   map[uint32]*engine.Stmt{},
		cursors: map[uint32]*cursor{},
	}
	defer func() {
		if p := recover(); p != nil {
			s.metrics.PanicsRecovered.Add(1)
			s.logf("server: session panic recovered: %v", p)
		}
		stopWatch()
		sess.closeAllCursors()
		sess.stopRunners()
		sess.eng.Close() // roll back any transaction the client abandoned
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.ActiveSessions.Add(-1)
		s.wg.Done()
	}()
	sess.loop()
}

// loop reads and handles frames in order, answering in order — the
// pipelining contract. The writer is flushed only when no further
// request is already buffered, so a pipelined batch pays one syscall per
// direction instead of one per frame.
func (sess *session) loop() {
	for {
		if sess.r.Buffered() == 0 {
			if err := sess.w.Flush(); err != nil {
				return
			}
		}
		typ, payload, err := ReadFrameInto(sess.r, &sess.in)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return // clean disconnect on a frame boundary
			}
			if sess.srv.baseCtx.Err() != nil {
				sess.sendError(&WireError{Code: CodeShutdown, Message: "server shutting down"})
				sess.w.Flush()
				return
			}
			sess.srv.metrics.ProtocolErrors.Add(1)
			var we *WireError
			if errors.As(err, &we) {
				sess.sendError(we)
			} else {
				sess.sendError(errProtocol("reading frame: %v", err))
			}
			sess.w.Flush()
			return
		}
		sess.srv.metrics.FramesRead.Add(1)
		err = sess.handle(typ, payload)
		if err == nil && sess.werr != nil {
			err = errProtocol("writing response: %v", sess.werr)
		}
		if err != nil {
			// Only protocol-level errors are connection-fatal;
			// statement-level failures were already answered with an
			// Error frame and the session continues.
			sess.srv.metrics.ProtocolErrors.Add(1)
			var we *WireError
			if !errors.As(err, &we) {
				we = errProtocol("%v", err)
			}
			sess.sendError(we)
			sess.w.Flush()
			return
		}
	}
}

// send writes one response frame into the buffered writer. A write
// failure (an oversized outgoing frame — broken pipes surface at flush)
// is recorded on werr: the response was dropped, so the positional
// stream is broken and the loop must close the connection.
func (sess *session) send(typ byte, payload []byte) {
	if err := WriteFrame(sess.w, typ, payload); err != nil {
		if sess.werr == nil {
			sess.werr = err
		}
		return
	}
	sess.srv.metrics.FramesWritten.Add(1)
}

// sendError answers the current request with a structured Error frame.
func (sess *session) sendError(we *WireError) {
	var e Enc
	e.Str(we.Code)
	e.Str(we.Message)
	sess.send(FrameError, e.Bytes())
}

// stmtError classifies err under code and answers it, keeping the
// session alive. Recovered engine panics are re-coded INTERNAL so the
// operator can tell grammar bugs from ordinary bad SQL.
func (sess *session) stmtError(code string, err error) {
	sess.srv.metrics.StatementErrors.Add(1)
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		sess.srv.metrics.PanicsRecovered.Add(1)
		sess.srv.logf("server: engine panic recovered: %v\n%s", pe.Val, pe.Stack)
		code = CodeInternal
	}
	sess.sendError(&WireError{Code: code, Message: err.Error()})
}

// handle dispatches one frame. A returned error is connection-fatal.
func (sess *session) handle(typ byte, payload []byte) error {
	if !sess.greeted && typ != FrameHello {
		return errProtocol("first frame must be Hello, got 0x%02x", typ)
	}
	switch typ {
	case FrameHello:
		return sess.handleHello(payload)
	case FramePrepare:
		return sess.handlePrepare(payload)
	case FrameBind:
		return sess.handleBind(payload)
	case FrameExecute:
		return sess.handleExecute(payload)
	case FrameFetch:
		return sess.handleFetch(payload)
	case FrameClose:
		return sess.handleClose(payload)
	case FrameExec:
		return sess.handleExec(payload)
	case FrameAnalyze:
		return sess.handleAnalyze(payload)
	case FrameBegin:
		return sess.handleBegin(payload)
	case FrameCommit:
		return sess.handleCommit(payload)
	case FrameRollback:
		return sess.handleRollback(payload)
	}
	return errProtocol("unknown frame type 0x%02x", typ)
}

func (sess *session) handleHello(payload []byte) error {
	d := NewDec(payload)
	version := d.U32()
	_ = d.Str() // client name, informational
	if err := d.Done(); err != nil {
		return err
	}
	if version != ProtocolVersion {
		return errProtocol("unsupported protocol version %d (server speaks %d)", version, ProtocolVersion)
	}
	sess.greeted = true
	var e Enc
	e.U32(ProtocolVersion)
	e.Str("arcserve")
	sess.send(FrameHelloOK, e.Bytes())
	return nil
}

// langOf maps the wire language byte onto engine.Lang.
func langOf(b byte) (engine.Lang, bool) {
	switch b {
	case WireLangSQL:
		return engine.LangSQL, true
	case WireLangARC:
		return engine.LangARC, true
	case WireLangDatalog:
		return engine.LangDatalog, true
	}
	return 0, false
}

func (sess *session) handlePrepare(payload []byte) error {
	d := NewDec(payload)
	id := d.U32()
	langByte := d.U8()
	pred := d.Str()
	src := d.Str()
	if err := d.Done(); err != nil {
		return err
	}
	lang, ok := langOf(langByte)
	if !ok {
		sess.stmtError(CodeParse, fmt.Errorf("unknown language byte 0x%02x", langByte))
		return nil
	}
	if _, exists := sess.stmts[id]; !exists && len(sess.stmts) >= sess.srv.opts.MaxStmts {
		// Re-preparing an existing id doesn't grow the map, so the cap
		// only gates genuinely new handles.
		sess.stmtError(CodeParse, fmt.Errorf("session holds %d prepared statements (limit %d); close some", len(sess.stmts), sess.srv.opts.MaxStmts))
		return nil
	}
	var stmt *engine.Stmt
	var err error
	if lang == engine.LangDatalog {
		stmt, err = sess.eng.PrepareDatalog(src, pred)
	} else {
		stmt, err = sess.eng.Prepare(lang, src)
	}
	if err != nil {
		sess.stmtError(CodeParse, err)
		return nil
	}
	sess.stmts[id] = stmt
	sess.srv.metrics.StatementsPrepared.Add(1)
	cols := stmt.Columns()
	var e Enc
	e.U32(id)
	e.U8(wireKind(stmt.Kind()))
	e.U32(uint32(stmt.NumParams()))
	e.U32(uint32(len(cols)))
	for _, c := range cols {
		e.Str(c)
	}
	sess.send(FramePrepareOK, e.Bytes())
	return nil
}

// wireKind projects engine.StmtKind onto the wire byte.
func wireKind(k engine.StmtKind) byte {
	switch k {
	case engine.KindDML:
		return WireKindDML
	case engine.KindDDL:
		return WireKindDDL
	case engine.KindBegin:
		return WireKindBegin
	case engine.KindCommit:
		return WireKindCommit
	case engine.KindRollback:
		return WireKindRollback
	default:
		return WireKindQuery
	}
}

// decodeArgs decodes a u32-counted argument vector. Each argument needs
// at least one payload byte, so the count is validated against the
// payload size before any allocation — a hostile argc must fail cheaply,
// not reserve gigabytes of slice capacity (found by FuzzServerFrames).
func decodeArgs(d *Dec, payloadLen int) []any {
	argc := d.U32()
	if d.err == nil && uint64(argc) > uint64(payloadLen) {
		d.fail("argument count %d overruns payload", argc)
	}
	if d.err != nil {
		return nil
	}
	args := make([]any, 0, argc)
	for i := uint32(0); i < argc && d.err == nil; i++ {
		args = append(args, d.Val())
	}
	return args
}

func (sess *session) handleBind(payload []byte) error {
	d := NewDec(payload)
	curID := d.U32()
	stmtID := d.U32()
	args := decodeArgs(&d, len(payload))
	if err := d.Done(); err != nil {
		return err
	}
	stmt, ok := sess.stmts[stmtID]
	if !ok {
		sess.stmtError(CodeUnknownStmt, fmt.Errorf("statement %d is not prepared in this session", stmtID))
		return nil
	}
	switch k := stmt.Kind(); k {
	case engine.KindBegin, engine.KindCommit, engine.KindRollback:
		// Transaction control is session state, not a portal: there is
		// nothing a cursor over BEGIN could ever stream or execute.
		sess.stmtError(CodeWrongKind, fmt.Errorf("cannot bind a cursor to a %s statement; send a %s frame (or Exec)", k, k))
		return nil
	}
	old, rebind := sess.cursors[curID]
	if !rebind && len(sess.cursors) >= sess.srv.opts.MaxCursors {
		// Rebinding an existing id doesn't grow the map; only new
		// cursors count against the cap.
		sess.stmtError(CodeBind, fmt.Errorf("session holds %d cursors (limit %d); close some", len(sess.cursors), sess.srv.opts.MaxCursors))
		return nil
	}
	if rebind {
		sess.closeRows(old)
	}
	sess.cursors[curID] = &cursor{stmt: stmt, args: args, cols: stmt.Columns()}
	var e Enc
	e.U32(curID)
	sess.send(FrameBindOK, e.Bytes())
	return nil
}

func (sess *session) handleExecute(payload []byte) error {
	d := NewDec(payload)
	curID := d.U32()
	if err := d.Done(); err != nil {
		return err
	}
	cur, ok := sess.cursors[curID]
	if !ok {
		sess.stmtError(CodeUnknownCursor, fmt.Errorf("cursor %d is not bound in this session", curID))
		return nil
	}
	if cur.rows != nil {
		sess.stmtError(CodeExecute, fmt.Errorf("cursor %d is already executing", curID))
		return nil
	}
	// A fetch cursor only makes sense over a statement that returns
	// rows: Execute of a DML/DDL portal is a structured kind error, not
	// a protocol mismatch. (Send an Exec frame instead.) The cursor Bind
	// made can never run, so it is dropped; it holds no rows yet.
	if k := cur.stmt.Kind(); !k.ReturnsRows() {
		delete(sess.cursors, curID)
		sess.stmtError(CodeWrongKind, fmt.Errorf("statement is %s, which returns no rows; use an Exec frame", k))
		return nil
	}
	// The latency histogram accumulates Execute plus every Fetch pull
	// into cur.elapsed and observes at cursor completion: for
	// planner-compiled SQL, Query only builds the operator tree — the
	// real work happens while Fetch pulls rows.
	start := time.Now()
	rows, err := cur.stmt.Query(sess.ctx, cur.args...)
	cur.elapsed += time.Since(start)
	if err != nil {
		sess.finishCursor(curID, cur)
		code := CodeExecute
		if sess.srv.baseCtx.Err() != nil && errors.Is(err, sess.srv.baseCtx.Err()) {
			code = CodeShutdown
		}
		sess.stmtError(code, err)
		return nil
	}
	cur.rows = rows
	sess.srv.metrics.QueriesExecuted.Add(1)
	var e Enc
	e.U32(curID)
	sess.send(FrameExecuteOK, e.Bytes())
	return nil
}

// softBatchBytes ends an encoded row batch, and is the only bound of a
// Fetch that caps no rows. It is well under MaxFrame so one batch of wide
// string rows never overflows the frame limit.
const softBatchBytes = 256 << 10

// retainBytes caps a buffer a connection keeps between frames: one that
// grew past it for a wide row or an oversized frame is dropped after
// use, not held for the session's lifetime.
const retainBytes = 2 * softBatchBytes

// rowsHeader is the Rows payload's fixed prefix: u32 cursorID, u8 done,
// u32 ncols, u32 nrows.
const rowsHeader = 13

// handleFetch resumes the cursor's runner once, which encodes each row
// inside the stream's yield straight into the session's payload buffer
// behind a Rows header, then patches the header's done and nrows once
// the batch is known: a row is encoded once and never copied on the
// server.
func (sess *session) handleFetch(payload []byte) error {
	d := NewDec(payload)
	curID := d.U32()
	maxRows := int(d.U32())
	if err := d.Done(); err != nil {
		return err
	}
	cur, ok := sess.cursors[curID]
	if !ok || cur.rows == nil {
		sess.stmtError(CodeUnknownCursor, fmt.Errorf("cursor %d is not executing in this session", curID))
		return nil
	}
	if maxRows <= 0 {
		maxRows = sess.srv.opts.FetchRows
	}
	if maxRows <= 0 {
		maxRows = math.MaxInt32 // what nrows can count: the byte bound ends the batch
	}
	e := Enc{b: sess.out[:0]}
	e.U32(curID)
	e.U8(0) // done, patched below
	e.U32(uint32(len(cur.cols)))
	e.U32(0) // nrows, patched below
	start := time.Now()
	e, n, done := sess.fill(cur, e.b, maxRows)
	cur.elapsed += time.Since(start)
	if cap(e.b) <= retainBytes {
		sess.out = e.b[:0]
	} else {
		sess.out = nil
	}
	if size := len(e.b) - rowsHeader; size > MaxFrame-64 {
		// A single row blew past the frame limit (the soft bound only
		// checks between rows): this result cannot be shipped, but the
		// session — and its positional stream — survives.
		sess.finishCursor(curID, cur)
		sess.stmtError(CodeFetch, fmt.Errorf("row of %d bytes exceeds the %d-byte frame limit", size, MaxFrame))
		return nil
	}
	if done {
		err := cur.rows.Err()
		sess.finishCursor(curID, cur)
		if err != nil {
			code := CodeFetch
			if sess.srv.baseCtx.Err() != nil && errors.Is(err, sess.srv.baseCtx.Err()) {
				code = CodeShutdown
			}
			sess.stmtError(code, err)
			return nil
		}
	}
	sess.srv.metrics.RowsStreamed.Add(uint64(n))
	sess.srv.metrics.FetchBatches.Add(1)
	if done {
		e.b[4] = 1
	}
	binary.BigEndian.PutUint32(e.b[9:rowsHeader], uint32(n))
	sess.send(FrameRows, e.b)
	return nil
}

func (sess *session) handleClose(payload []byte) error {
	d := NewDec(payload)
	kind := d.U8()
	id := d.U32()
	if err := d.Done(); err != nil {
		return err
	}
	switch kind {
	case 0:
		// Statement handles are session-scoped names over the engine's
		// shared (cached) statements; dropping the name is all a close
		// means here.
		delete(sess.stmts, id)
	case 1:
		if cur, ok := sess.cursors[id]; ok {
			sess.finishCursor(id, cur)
		}
	default:
		return errProtocol("unknown close kind 0x%02x", kind)
	}
	var e Enc
	e.U8(kind)
	e.U32(id)
	sess.send(FrameCloseOK, e.Bytes())
	return nil
}

// handleExec runs a DML/DDL statement (or SQL transaction control)
// directly from a prepared handle — no cursor, one ExecOK response
// carrying rows-affected plus the commit generation the write became
// visible at (0 while buffered in an open transaction).
func (sess *session) handleExec(payload []byte) error {
	d := NewDec(payload)
	stmtID := d.U32()
	args := decodeArgs(&d, len(payload))
	if err := d.Done(); err != nil {
		return err
	}
	stmt, ok := sess.stmts[stmtID]
	if !ok {
		sess.stmtError(CodeUnknownStmt, fmt.Errorf("statement %d is not prepared in this session", stmtID))
		return nil
	}
	if stmt.Kind() == engine.KindQuery {
		sess.stmtError(CodeWrongKind, fmt.Errorf("statement is a query; bind a cursor and use Execute/Fetch"))
		return nil
	}
	res, err := sess.eng.ExecStmt(sess.ctx, stmt, args...)
	if err != nil {
		sess.stmtError(execErrCode(sess, err), err)
		return nil
	}
	sess.srv.metrics.QueriesExecuted.Add(1)
	var e Enc
	e.U64(uint64(res.RowsAffected))
	e.U64(res.Generation)
	sess.send(FrameExecOK, e.Bytes())
	return nil
}

// handleAnalyze runs a prepared query with operator tracing enabled and
// answers AnalyzeOK carrying the rendered executed plan (EXPLAIN
// ANALYZE over the wire). The query runs to completion server-side — no
// cursor is involved, and the rows themselves are not shipped.
func (sess *session) handleAnalyze(payload []byte) error {
	d := NewDec(payload)
	stmtID := d.U32()
	args := decodeArgs(&d, len(payload))
	if err := d.Done(); err != nil {
		return err
	}
	stmt, ok := sess.stmts[stmtID]
	if !ok {
		sess.stmtError(CodeUnknownStmt, fmt.Errorf("statement %d is not prepared in this session", stmtID))
		return nil
	}
	if k := stmt.Kind(); k != engine.KindQuery {
		sess.stmtError(CodeWrongKind, fmt.Errorf("statement is %s; only queries can be analyzed", k))
		return nil
	}
	start := time.Now()
	text, err := stmt.ExplainAnalyze(sess.ctx, args...)
	elapsed := time.Since(start)
	if err != nil {
		code := CodeExecute
		if sess.srv.baseCtx.Err() != nil && errors.Is(err, sess.srv.baseCtx.Err()) {
			code = CodeShutdown
		}
		sess.stmtError(code, err)
		return nil
	}
	sess.srv.metrics.QueriesExecuted.Add(1)
	sess.srv.metrics.ObserveQuery(elapsed)
	var e Enc
	e.Str(text)
	sess.send(FrameAnalyzeOK, e.Bytes())
	return nil
}

// execErrCode classifies a write-path failure into a wire code.
func execErrCode(sess *session, err error) string {
	switch {
	case errors.Is(err, engine.ErrConflict):
		return CodeConflict
	case errors.Is(err, engine.ErrTxDone):
		return CodeTx
	case sess.srv.baseCtx.Err() != nil && errors.Is(err, sess.srv.baseCtx.Err()):
		return CodeShutdown
	}
	return CodeExecute
}

// handleBegin opens the session's transaction; BeginOK reports the
// snapshot generation the transaction reads from.
func (sess *session) handleBegin(payload []byte) error {
	if len(payload) != 0 {
		return errProtocol("Begin carries no payload, got %d bytes", len(payload))
	}
	if sess.eng.InTx() {
		sess.stmtError(CodeTx, fmt.Errorf("transaction already open (nested transactions are not supported)"))
		return nil
	}
	if err := sess.eng.Begin(sess.ctx); err != nil {
		sess.stmtError(execErrCode(sess, err), err)
		return nil
	}
	var e Enc
	e.U64(sess.eng.Tx().BaseGeneration())
	sess.send(FrameBeginOK, e.Bytes())
	return nil
}

// handleCommit publishes the session's transaction; CommitOK reports
// the new commit generation. A first-committer-wins loss answers
// CONFLICT and the transaction is over either way.
func (sess *session) handleCommit(payload []byte) error {
	if len(payload) != 0 {
		return errProtocol("Commit carries no payload, got %d bytes", len(payload))
	}
	if !sess.eng.InTx() {
		sess.stmtError(CodeTx, fmt.Errorf("no open transaction"))
		return nil
	}
	gen, err := sess.eng.Commit()
	if err != nil {
		sess.stmtError(execErrCode(sess, err), err)
		return nil
	}
	var e Enc
	e.U64(gen)
	sess.send(FrameCommitOK, e.Bytes())
	return nil
}

// handleRollback discards the session's transaction.
func (sess *session) handleRollback(payload []byte) error {
	if len(payload) != 0 {
		return errProtocol("Rollback carries no payload, got %d bytes", len(payload))
	}
	if !sess.eng.InTx() {
		sess.stmtError(CodeTx, fmt.Errorf("no open transaction"))
		return nil
	}
	if err := sess.eng.Rollback(); err != nil {
		sess.stmtError(execErrCode(sess, err), err)
		return nil
	}
	sess.send(FrameRollbackOK, nil)
	return nil
}

// finishCursor closes and forgets a cursor, recording its accumulated
// execution time (Execute + Fetches) in the latency histogram.
func (sess *session) finishCursor(id uint32, cur *cursor) {
	sess.closeRows(cur)
	delete(sess.cursors, id)
	sess.srv.metrics.ObserveQuery(cur.elapsed)
}

// closeRows releases a cursor's engine rows: a stream suspended in a
// runner is unwound first, which finishes the rows from inside, so the
// Close after it only reports.
func (sess *session) closeRows(cur *cursor) {
	sess.abort(cur)
	if cur.rows != nil {
		cur.rows.Close()
	}
}

// closeAllCursors releases every open cursor when the session ends
// (abandoned mid-stream, so no latency observation).
func (sess *session) closeAllCursors() {
	for _, cur := range sess.cursors {
		sess.closeRows(cur)
	}
}
