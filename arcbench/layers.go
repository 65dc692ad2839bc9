// layers.go is the only file of the benchmark that imports the program
// under test. Every internal function the benchmark compiles against is
// called from here and nowhere else — the pinned entry points listed in
// README.md. A later change that needs to alter one of these signatures
// needs a `benchmark` issue first: the benchmark must stay the same
// program on both sides of a comparison.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// Opaque handles the rest of the benchmark passes around.
type (
	Value    = value.Value
	Relation = relation.Relation
	Tuple    = relation.Tuple
	DB       = engine.DB
	Stmt     = engine.Stmt
	Conn     = client.Conn
	WireStmt = client.Stmt
	Store    = relation.Store
	Manager  = storage.Manager
	Plan     = plan.Plan
	SQLQuery = sql.Query
	ARCQuery = alt.Collection
	Program  = datalog.Program
	arcCat   = eval.Catalog

	traceFixpoint = trace.Fixpoint
)

// Lang is the statement language of an op class.
type Lang int

const (
	langSQL Lang = iota
	langARC
	langDatalog
)

func (l Lang) engine() engine.Lang {
	return [...]engine.Lang{engine.LangSQL, engine.LangARC, engine.LangDatalog}[l]
}

func (l Lang) wire() client.Lang {
	return [...]client.Lang{client.LangSQL, client.LangARC, client.LangDatalog}[l]
}

var bg = context.Background()

// ---- value / relation ------------------------------------------------

func intVal(i int) Value { return value.Int(int64(i)) }

func newRelation(name string, attrs ...string) *Relation { return relation.New(name, attrs...) }

func addRow(r *Relation, a, b int) { r.Insert(Tuple{intVal(a), intVal(b)}) }

func relCard(r *Relation) int { return r.Card() }

// pairOf reads a two-column integer tuple.
func pairOf(t Tuple) [2]int64 { return [2]int64{t[0].AsInt(), t[1].AsInt()} }

// eachPair visits the rows of a two-column integer relation.
func eachPair(r *Relation, f func(a, b int64)) {
	r.Each(func(t Tuple, _ int) { f(t[0].AsInt(), t[1].AsInt()) })
}

// relAnswer folds a materialized result into the oracle's form: the
// row-occurrence count plus an order-independent checksum.
func relAnswer(r *Relation) answer {
	var a answer
	r.Each(func(t Tuple, m int) {
		a.rows += m
		a.sum += uint64(m) * rowHash(t)
	})
	return a
}

// rowsAnswer is relAnswer over rows as the wire client returns them.
func rowsAnswer(rows [][]Value) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		a.sum += rowHash(r)
	}
	return a
}

// rowHash mixes a row's values position-sensitively; rows are summed, so
// the checksum ignores row order but not duplicates.
func rowHash(row []Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		var x uint64
		switch v.Kind() {
		case value.KindInt:
			x = uint64(v.AsInt())
		case value.KindFloat:
			x = math.Float64bits(v.AsFloat())
		case value.KindString:
			for _, c := range []byte(v.AsString()) {
				x = (x ^ uint64(c)) * 0x100000001b3
			}
		case value.KindBool:
			if v.AsBool() {
				x = 1
			}
		}
		h = (h ^ (x + uint64(v.Kind()))) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

func equalBag(a, b *Relation) bool { return a.EqualBag(b) }

// userBytes is the exact byte count of the live user values of a
// relation: 8 per numeric, the length of a string, 1 per bool or NULL.
func userBytes(r *Relation) int64 {
	var n int64
	r.Each(func(t Tuple, m int) {
		for _, v := range t {
			switch v.Kind() {
			case value.KindInt, value.KindFloat:
				n += 8 * int64(m)
			case value.KindString:
				n += int64(len(v.AsString())) * int64(m)
			default:
				n += int64(m)
			}
		}
	})
	return n
}

func relClone(r *Relation) *Relation { return r.Clone() }

// relProbe runs one hash-index point probe on column 0 and returns the
// number of matches.
func relProbe(r *Relation, key Value) int {
	n := 0
	r.Probe([]int{0}, []Value{key}, func(Tuple, int) bool { n++; return true })
	return n
}

// relRangeProbe runs one ordered-index range probe lo <= col0 < hi.
func relRangeProbe(r *Relation, lo, hi Value) int {
	n := 0
	r.RangeProbe(0, lo, hi, true, false, func(Tuple, int) bool { n++; return true })
	return n
}

// ---- engine ----------------------------------------------------------

// openMem opens an in-memory engine. setLogic switches ARC statements
// to set semantics (three_lang: the three languages must agree as bags).
func openMem(setLogic bool, rels ...*Relation) *DB {
	db := engine.Open(rels...)
	if setLogic {
		db.SetConventions(convention.SetLogic())
	}
	return db
}

// openDurable opens (or recovers) a durable engine with fsync per commit.
func openDurable(dir string, seed ...*Relation) (*DB, error) {
	return engine.OpenDurable(dir, storage.Options{Fsync: true}, seed...)
}

func dbRelation(db *DB, name string) *Relation { return db.Relation(name) }

func dbGeneration(db *DB) uint64 { return db.Generation() }

func enginePrepare(db *DB, lang Lang, src, pred string) (*Stmt, error) {
	if lang == langDatalog && pred != "" {
		return db.PrepareDatalog(src, pred)
	}
	return db.Prepare(lang.engine(), src)
}

func engineQueryAll(st *Stmt, args []any) (*Relation, error) { return st.QueryAll(bg, args...) }

// engineQuery runs a prepared query the way a server session does:
// Stmt.Query, then the cursor pulled row by row with a Values copy per
// row.
func engineQuery(st *Stmt, args []any) ([][]Value, error) {
	rows, err := st.Query(bg, args...)
	if err != nil {
		return nil, err
	}
	return drain(rows)
}

// engineAdhoc is engineQuery for a one-shot text: DB.Query prepares
// through the statement cache first.
func engineAdhoc(db *DB, lang Lang, src string) ([][]Value, error) {
	rows, err := db.Query(bg, lang.engine(), src)
	if err != nil {
		return nil, err
	}
	return drain(rows)
}

func drain(rows *engine.Rows) ([][]Value, error) {
	var out [][]Value
	for rows.Next() {
		out = append(out, rows.Values())
	}
	return out, rows.Close()
}

func engineExec(st *Stmt, args []any) (int64, error) {
	res, err := st.Exec(bg, args...)
	return res.RowsAffected, err
}

// engineTxBatch is the engine-depth twin of the wire tx_batch op: a
// session transaction applying one prepared insert per row.
func engineTxBatch(db *DB, src string, batch [][]any) (int64, error) {
	sess := db.NewSession()
	if err := sess.Begin(bg); err != nil {
		return 0, err
	}
	var n int64
	for _, args := range batch {
		st, err := sess.Prepare(engine.LangSQL, src)
		if err == nil {
			var res engine.Result
			res, err = sess.ExecStmt(bg, st, args...)
			n += res.RowsAffected
		}
		if err != nil {
			_ = sess.Rollback() // the statement error is the one reported
			return 0, err
		}
	}
	_, err := sess.Commit()
	return n, err
}

// fixpointCounts runs a query with operator tracing and reports the
// fixpoint rounds and delta rows the engine recorded for it.
func fixpointCounts(st *Stmt, args []any) (rounds, deltaRows int, err error) {
	rows, tr, err := st.QueryTraced(bg, args...)
	if err != nil {
		return 0, 0, err
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		return 0, 0, err
	}
	tr.EachFixpoint(func(fp *traceFixpoint) {
		rounds += len(fp.Rounds)
		deltaRows += fp.TotalDelta()
	})
	return rounds, deltaRows, nil
}

// engineCounters is the subset of engine.DBStats the benchmark reads.
type engineCounters struct {
	prepares, cacheHits         uint64
	conflictRetries             uint64
	storeCommits, storeConflict uint64
	cacheLookups, blockHits     uint64
}

func dbCounters(db *DB) engineCounters {
	st := db.Stats()
	c := engineCounters{
		prepares: st.Prepares, cacheHits: st.CacheHits,
		conflictRetries: st.ConflictRetries,
		storeCommits:    st.Store.Commits, storeConflict: st.Store.Conflicts,
	}
	if sg := st.Storage; sg != nil {
		c.blockHits = sg.BlockCacheHits
		c.cacheLookups = sg.BlockCacheHits + sg.BlockCacheMisses
	}
	return c
}

func dbCheckpoint(db *DB) error { return db.Checkpoint() }

func dbClose(db *DB) error { return db.Close() }

// dbRecovery reports what OpenDurable replayed: WAL records and the
// wall time recovery took.
func dbRecovery(db *DB) (records uint64, dur time.Duration) {
	rs, _ := db.RecoveryStats()
	return rs.Records, rs.Duration
}

// ---- server / client -------------------------------------------------

// wireServer is an in-process server on a loopback listener.
type wireServer struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(db *DB) (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &wireServer{srv: server.New(db, server.Options{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { w.done <- w.srv.Serve(ln) }()
	return w, nil
}

// stop drains the server and waits for its accept loop to return.
func (w *wireServer) stop() error {
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.done; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	return err
}

// wireCounters is the subset of server.Snapshot the benchmark reads.
type wireCounters struct{ frames, rows, fetchBatches uint64 }

func (w *wireServer) counters() wireCounters {
	s := w.srv.Snapshot()
	return wireCounters{frames: s.FramesRead + s.FramesWritten, rows: s.RowsStreamed, fetchBatches: s.FetchBatches}
}

func dial(addr string) (*Conn, error) { return client.Dial(addr) }

// wireClose drops the connection. Every request has been answered by
// then, so there is nothing buffered whose loss the error could report.
func wireClose(c *Conn) { _ = c.Close() }

func wirePrepare(c *Conn, lang Lang, src, pred string) (*WireStmt, error) {
	if lang == langDatalog && pred != "" {
		return c.PrepareDatalog(src, pred)
	}
	return c.Prepare(lang.wire(), src)
}

func wireQueryAll(st *WireStmt, args []Value) ([][]Value, error) { return st.QueryAll(args...) }

func wireAdhoc(c *Conn, lang Lang, src string) ([][]Value, error) {
	rows, _, err := c.Query(lang.wire(), src)
	return rows, err
}

func wireExec(st *WireStmt, args []Value) (int64, error) {
	res, err := st.Exec(args...)
	return res.RowsAffected, err
}

func wireBegin(c *Conn) error { _, err := c.Begin(); return err }

func wireCommit(c *Conn) error { _, err := c.Commit(); return err }

// codecOp describes the frames one op exchanges with the server.
type codecOp struct {
	adhocSrc string    // non-empty: Prepare and Close frames around the query
	args     []Value   // bound arguments
	reply    [][]Value // rows the query returns
	exec     bool      // Exec/ExecOK in place of Bind+Execute+Fetch
	batch    [][]Value // non-empty: Begin + one Exec per element + Commit
}

// frameThrough writes one frame into buf and reads it back: Enc'd
// payload -> WriteFrame -> ReadFrame -> Dec, what each side of the
// socket does for the frame, without the socket.
func frameThrough(buf *bytes.Buffer, typ byte, payload []byte) (server.Dec, error) {
	if err := server.WriteFrame(buf, typ, payload); err != nil {
		return server.Dec{}, err
	}
	_, p, err := server.ReadFrame(buf)
	return server.NewDec(p), err
}

// codecRoundTrip pushes every frame of one op — requests and replies,
// in the layouts client.Stmt.Query / Exec and the server's handlers use —
// through the wire codec alone: no socket, no dispatch, no execution.
func codecRoundTrip(buf *bytes.Buffer, op codecOp) error {
	buf.Reset()
	ids := func(typ byte, n int) error { // a frame of n u32 ids
		var e server.Enc
		for i := 0; i < n; i++ {
			e.U32(1)
		}
		d, err := frameThrough(buf, typ, e.Bytes())
		for i := 0; i < n; i++ {
			d.U32()
		}
		if err == nil {
			err = d.Err()
		}
		return err
	}
	withArgs := func(typ byte, nIDs int, args []Value) error {
		var e server.Enc
		for i := 0; i < nIDs; i++ {
			e.U32(1)
		}
		e.U32(uint32(len(args)))
		for _, a := range args {
			e.Val(a)
		}
		d, err := frameThrough(buf, typ, e.Bytes())
		for i := 0; i < nIDs; i++ {
			d.U32()
		}
		for n := d.U32(); n > 0 && d.Err() == nil; n-- {
			d.Val()
		}
		if err == nil {
			err = d.Err()
		}
		return err
	}
	execOnce := func(args []Value) error {
		if err := withArgs(server.FrameExec, 1, args); err != nil {
			return err
		}
		var e server.Enc
		e.U64(1)
		e.U64(1)
		d, err := frameThrough(buf, server.FrameExecOK, e.Bytes())
		d.U64()
		d.U64()
		if err == nil {
			err = d.Err()
		}
		return err
	}
	switch {
	case len(op.batch) > 0:
		var gen server.Enc
		gen.U64(1)
		for _, f := range []struct {
			typ byte
			p   []byte
		}{{server.FrameBegin, nil}, {server.FrameBeginOK, gen.Bytes()}} {
			if _, err := frameThrough(buf, f.typ, f.p); err != nil {
				return err
			}
		}
		for _, args := range op.batch {
			if err := execOnce(args); err != nil {
				return err
			}
		}
		if _, err := frameThrough(buf, server.FrameCommit, nil); err != nil {
			return err
		}
		_, err := frameThrough(buf, server.FrameCommitOK, gen.Bytes())
		return err
	case op.exec:
		return execOnce(op.args)
	}
	ncols := 0
	if len(op.reply) > 0 {
		ncols = len(op.reply[0])
	}
	if op.adhocSrc != "" {
		var e server.Enc
		e.U32(1)
		e.U8(server.WireLangSQL)
		e.Str("")
		e.Str(op.adhocSrc)
		d, err := frameThrough(buf, server.FramePrepare, e.Bytes())
		d.U32()
		d.U8()
		d.Str()
		d.Str()
		if err == nil {
			err = d.Err()
		}
		if err != nil {
			return err
		}
		var ok server.Enc
		ok.U32(1)
		ok.U8(server.WireKindQuery)
		ok.U32(0)
		ok.U32(uint32(ncols))
		for i := 0; i < ncols; i++ {
			ok.Str("A")
		}
		d, err = frameThrough(buf, server.FramePrepareOK, ok.Bytes())
		d.U32()
		d.U8()
		d.U32()
		for n := d.U32(); n > 0 && d.Err() == nil; n-- {
			d.Str()
		}
		if err == nil {
			err = d.Err()
		}
		if err != nil {
			return err
		}
	}
	if err := withArgs(server.FrameBind, 2, op.args); err != nil {
		return err
	}
	for _, typ := range []byte{server.FrameExecute, server.FrameBindOK, server.FrameExecuteOK} {
		if err := ids(typ, 1); err != nil {
			return err
		}
	}
	const fetchRows = 256 // server.Options.FetchRows default
	for start := 0; ; start += fetchRows {
		if err := ids(server.FrameFetch, 2); err != nil {
			return err
		}
		end := min(start+fetchRows, len(op.reply))
		var e server.Enc
		e.U32(1)
		if end == len(op.reply) {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.U32(uint32(ncols))
		e.U32(uint32(end - start))
		for _, row := range op.reply[start:end] {
			for _, v := range row {
				e.Val(v)
			}
		}
		d, err := frameThrough(buf, server.FrameRows, e.Bytes())
		if err != nil {
			return err
		}
		d.U32()
		d.U8()
		nc, nr := int(d.U32()), int(d.U32())
		for i := 0; i < nr && d.Err() == nil; i++ {
			row := make([]Value, nc)
			for j := range row {
				row[j] = d.Val()
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
		if end == len(op.reply) {
			break
		}
	}
	if op.adhocSrc != "" {
		var e server.Enc
		e.U8(0)
		e.U32(1)
		for _, typ := range []byte{server.FrameClose, server.FrameCloseOK} {
			d, err := frameThrough(buf, typ, e.Bytes())
			d.U8()
			d.U32()
			if err == nil {
				err = d.Err()
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- language front ends and executors (depth 2) ---------------------

func sqlParse(src string) (SQLQuery, error) { return sql.Parse(src) }

func arcParse(src string) (*ARCQuery, error) { return arc.ParseCollection(src) }

func datalogParse(src string) (*Program, error) { return datalog.Parse(src) }

// headRels is the relation map of the DB's current snapshot, copied
// because plan.Compile extends its map with CTE names.
func headRels(db *DB) map[string]*Relation {
	out := map[string]*Relation{}
	for k, v := range db.Store().Head().Rels() {
		out[k] = v
	}
	return out
}

func planCompile(q SQLQuery, rels map[string]*Relation) (*Plan, error) { return plan.Compile(q, rels) }

// planDrain streams a compiled plan to exhaustion, counting rows.
func planDrain(p *Plan, args []Value) (int, error) {
	seq, errFn := p.Stream(args, nil)
	n := 0
	for _, m := range seq {
		n += m
	}
	return n, errFn()
}

// arcCatalog is the ARC catalog over the DB's current snapshot.
func arcCatalog(db *DB) *arcCat {
	cat := eval.NewCatalog()
	for _, r := range db.Store().Head().Rels() {
		cat.AddRelation(r)
	}
	return cat
}

func arcEval(col *ARCQuery, cat *arcCat) (int, error) {
	rel, err := eval.Eval(col, cat, convention.SetLogic())
	if err != nil {
		return 0, err
	}
	return rel.Card(), nil
}

func datalogEval(p *Program, rels map[string]*Relation, pred string) (int, error) {
	rel, err := datalog.EvalPredicate(p, datalog.EDB(rels), pred)
	if err != nil {
		return 0, err
	}
	return rel.Card(), nil
}

// ---- relation.Store and storage.Manager (depth 2 for writes) ---------

func newStore(rels ...*Relation) *Store { return relation.NewStore(rels...) }

// storeCommit applies deletes then inserts to one relation in a fresh
// write set and commits it: Store.Begin + WriteSet.Delete/Insert +
// Store.Commit, the path engine autocommit and Tx.Commit end in.
func storeCommit(st *Store, rel string, del, ins []Tuple) error {
	ws := st.Begin()
	if len(del) > 0 {
		if _, err := ws.Delete(rel, del); err != nil {
			return err
		}
	}
	for _, t := range ins {
		if err := ws.Insert(rel, t, 1); err != nil {
			return err
		}
	}
	_, err := st.Commit(ws)
	return err
}

// attachManager opens a fresh storage directory and journals st's
// commits into it (storage.Open + Manager.Bootstrap).
func attachManager(dir string, fsync bool, st *Store) (*Manager, error) {
	m, rec, err := storage.Open(dir, storage.Options{Fsync: fsync})
	if err != nil {
		return nil, err
	}
	if !rec.Empty {
		_ = m.Close()
		return nil, fmt.Errorf("arcbench: storage directory %s is not empty", dir)
	}
	if err := m.Bootstrap(st); err != nil {
		_ = m.Close()
		return nil, err
	}
	return m, nil
}

func managerWAL(m *Manager) (records, bytes uint64) {
	s := m.Stats()
	return s.WALRecords, s.WALBytes
}

func managerCheckpoint(m *Manager) error { return m.Checkpoint() }

func managerClose(m *Manager) error { return m.Close() }

// storeUserBytes is userBytes over every relation of the store's head.
func storeUserBytes(st *Store) int64 {
	var n int64
	for _, r := range st.Head().Rels() {
		n += userBytes(r)
	}
	return n
}
