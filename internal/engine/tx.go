// tx.go layers transactions over the MVCC store: Begin opens a Tx whose
// reads and writes run against a private write-set overlay of the
// snapshot current at Begin, Commit publishes the write set
// first-committer-wins, Rollback discards it. A Session adds SQL-level
// transaction control (BEGIN/COMMIT/ROLLBACK as executable statements)
// and is the unit a server connection holds.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// ErrTxDone reports use of a transaction after Commit or Rollback.
var ErrTxDone = errors.New("engine: transaction has already been committed or rolled back")

// Tx is an open transaction. Statements prepared from it compile
// against the transaction's overlay (base snapshot + own uncommitted
// writes) and re-resolve through a per-transaction statement cache
// whenever the transaction writes, so reads inside the transaction see
// its own writes exactly once. A Tx is bound to one goroutine, like a
// database/sql transaction in practice: its write set is not locked.
type Tx struct {
	db   *DB
	ws   *relation.WriteSet
	done bool
	gen  uint64 // commit generation, set by a successful Commit
	// cache maps statement keys to their latest in-transaction
	// compilation; entries are valid while the write-set version is
	// unchanged (the read-your-writes fingerprint).
	cache map[string]*txEntry
}

type txEntry struct {
	s   *Stmt
	ver uint64
}

// Begin opens a transaction against the current committed snapshot.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	db.txBegins.Add(1)
	return &Tx{db: db, ws: db.store.Begin(), cache: map[string]*txEntry{}}, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Prepare compiles src against the transaction's current overlay.
func (tx *Tx) Prepare(lang Lang, src string) (*Stmt, error) {
	return tx.prepare(lang, src, "")
}

// PrepareDatalog prepares a Datalog program selecting the returned
// predicate (empty = the last rule's head).
func (tx *Tx) PrepareDatalog(src, pred string) (*Stmt, error) {
	return tx.prepare(LangDatalog, src, pred)
}

func (tx *Tx) prepare(lang Lang, src, pred string) (s *Stmt, err error) {
	defer recoverTo(&err, "prepare")
	if tx.done {
		return nil, ErrTxDone
	}
	conv := tx.db.conventions()
	key := cacheKey(lang, conv, src, pred)
	if e, ok := tx.cache[key]; ok && e.ver == tx.ws.Ver() {
		return e.s, nil
	}
	rels := tx.ws.Rels()
	s, err = compileStmt(tx.db, lang, src, pred, copyRels(rels), tx.db.catalogFor(rels), conv)
	if err != nil {
		return nil, err
	}
	s.tx = tx
	s.ver = tx.ws.Ver()
	s.gen = tx.ws.Base().Gen()
	tx.cache[key] = &txEntry{s: s, ver: s.ver}
	return s, nil
}

// resolve returns the freshest compilation of a transaction-owned
// statement: the statement itself while the write set hasn't moved,
// otherwise a recompile against the current overlay (served from the
// per-transaction cache when this source was already recompiled).
func (tx *Tx) resolve(s *Stmt) (*Stmt, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if s.ver == tx.ws.Ver() {
		return s, nil
	}
	if s.kind != KindQuery && s.q == nil {
		// Snapshot-independent writes (INSERT … VALUES, CREATE TABLE,
		// fact ops) never read the overlay; their targets are
		// revalidated at apply time, so a batch of inserts doesn't pay
		// a recompile per write-set version.
		return s, nil
	}
	return tx.prepare(s.lang, s.src, s.pred())
}

// exec applies a DML/DDL statement to the transaction's write set.
func (tx *Tx) exec(s *Stmt, vals []value.Value, check func() error) (Result, error) {
	if tx.done {
		return Result{}, ErrTxDone
	}
	cur, err := tx.resolve(s)
	if err != nil {
		return Result{}, err
	}
	n, err := cur.applyTo(tx.ws, vals, check)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n, Generation: 0}, nil
}

// Query prepares (through the transaction's cache) and runs a query
// against the transaction's overlay.
func (tx *Tx) Query(ctx context.Context, lang Lang, src string, args ...any) (*Rows, error) {
	s, err := tx.prepare(lang, src, "")
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, args...)
}

// QueryAll is the materializing form of Query.
func (tx *Tx) QueryAll(ctx context.Context, lang Lang, src string, args ...any) (*relation.Relation, error) {
	s, err := tx.prepare(lang, src, "")
	if err != nil {
		return nil, err
	}
	return s.QueryAll(ctx, args...)
}

// Exec runs a DML or DDL statement inside the transaction. Transaction
// control is not a statement here: use Commit/Rollback (or a Session
// for SQL-level control).
func (tx *Tx) Exec(ctx context.Context, lang Lang, src string, args ...any) (Result, error) {
	s, err := tx.prepare(lang, src, "")
	if err != nil {
		return Result{}, err
	}
	switch s.kind {
	case KindBegin:
		return Result{}, fmt.Errorf("engine: transaction already open")
	case KindCommit, KindRollback:
		return Result{}, fmt.Errorf("engine: use Tx.Commit/Tx.Rollback (or a Session) for transaction control")
	}
	return s.Exec(ctx, args...)
}

// Commit publishes the write set. On a first-committer-wins conflict it
// returns an error wrapping ErrConflict and the transaction is finished
// (roll-forward by retrying a new transaction); on success Generation
// reports the new commit generation.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	snap, err := tx.db.store.Commit(tx.ws)
	if err != nil {
		if errors.Is(err, relation.ErrConflict) {
			tx.db.conflicts.Add(1)
		}
		return err
	}
	tx.db.txCommits.Add(1)
	tx.gen = snap.Gen()
	return nil
}

// Rollback discards the write set. Rolling back a finished transaction
// returns ErrTxDone (matching database/sql).
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.db.txRollbacks.Add(1)
	return nil
}

// Generation returns the commit generation a successful Commit
// published, 0 before.
func (tx *Tx) Generation() uint64 { return tx.gen }

// Session is a connection-scoped execution context: it routes
// Prepare/Query/Exec through the open transaction when there is one,
// and executes SQL transaction control (BEGIN/COMMIT/ROLLBACK) as
// statements. A Session is bound to one goroutine (the server gives
// each connection its own).
type Session struct {
	db *DB
	tx *Tx
	// seq counts transaction boundary events (begin/commit/rollback) —
	// part of the epoch server-side prepared handles revalidate on.
	seq uint64
}

// NewSession opens a session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// DB returns the session's engine.
func (s *Session) DB() *DB { return s.db }

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.tx != nil && !s.tx.done }

// SessionEpoch fingerprints the data a session's statements resolve
// against: the store generation outside a transaction, plus the
// transaction sequence number and write-set version inside one. Two
// equal epochs see identical data, so a prepared handle compiled at one
// epoch is exactly as fresh at another equal epoch — the comparable
// token server sessions revalidate statement handles with.
type SessionEpoch struct {
	Gen   uint64
	TxSeq uint64
	TxVer uint64
}

// Epoch returns the session's current epoch.
func (s *Session) Epoch() SessionEpoch {
	if s.InTx() {
		return SessionEpoch{Gen: s.tx.ws.Base().Gen(), TxSeq: s.seq, TxVer: s.tx.ws.Ver()}
	}
	return SessionEpoch{Gen: s.db.store.Gen(), TxSeq: s.seq}
}

// Prepare compiles src in the session's current context: against the
// open transaction's overlay, or the current committed snapshot.
func (s *Session) Prepare(lang Lang, src string) (*Stmt, error) {
	return s.prepare(lang, src, "")
}

// PrepareDatalog prepares a Datalog program selecting the returned
// predicate.
func (s *Session) PrepareDatalog(src, pred string) (*Stmt, error) {
	return s.prepare(LangDatalog, src, pred)
}

func (s *Session) prepare(lang Lang, src, pred string) (*Stmt, error) {
	if s.InTx() {
		return s.tx.prepare(lang, src, pred)
	}
	return s.db.prepare(lang, src, pred)
}

// Query runs a query in the session's current context.
func (s *Session) Query(ctx context.Context, lang Lang, src string, args ...any) (*Rows, error) {
	st, err := s.prepare(lang, src, "")
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, args...)
}

// QueryAll is the materializing form of Query.
func (s *Session) QueryAll(ctx context.Context, lang Lang, src string, args ...any) (*relation.Relation, error) {
	st, err := s.prepare(lang, src, "")
	if err != nil {
		return nil, err
	}
	return st.QueryAll(ctx, args...)
}

// Exec executes any non-query statement, including SQL transaction
// control: BEGIN opens the session's transaction, COMMIT publishes it
// (reporting the new generation), ROLLBACK discards it.
func (s *Session) Exec(ctx context.Context, lang Lang, src string, args ...any) (Result, error) {
	st, err := s.prepare(lang, src, "")
	if err != nil {
		return Result{}, err
	}
	return s.ExecStmt(ctx, st, args...)
}

// ExecStmt executes a prepared statement in the session's context,
// routing transaction control. The statement must have been prepared
// through this session (or its DB).
func (s *Session) ExecStmt(ctx context.Context, st *Stmt, args ...any) (Result, error) {
	switch st.kind {
	case KindBegin:
		if len(args) != 0 {
			return Result{}, fmt.Errorf("engine: BEGIN takes no arguments")
		}
		return Result{}, s.Begin(ctx)
	case KindCommit:
		if len(args) != 0 {
			return Result{}, fmt.Errorf("engine: COMMIT takes no arguments")
		}
		gen, err := s.Commit()
		if err != nil {
			return Result{}, err
		}
		return Result{Generation: gen}, nil
	case KindRollback:
		if len(args) != 0 {
			return Result{}, fmt.Errorf("engine: ROLLBACK takes no arguments")
		}
		return Result{}, s.Rollback()
	}
	return st.Exec(ctx, args...)
}

// Begin opens the session's transaction.
func (s *Session) Begin(ctx context.Context) error {
	if s.InTx() {
		return fmt.Errorf("engine: transaction already open (nested transactions are not supported)")
	}
	tx, err := s.db.Begin(ctx)
	if err != nil {
		return err
	}
	s.tx = tx
	s.seq++
	return nil
}

// Tx returns the open transaction, or nil.
func (s *Session) Tx() *Tx {
	if s.InTx() {
		return s.tx
	}
	return nil
}

// Commit publishes the open transaction, returning the new commit
// generation.
func (s *Session) Commit() (uint64, error) {
	if !s.InTx() {
		return 0, fmt.Errorf("engine: no open transaction")
	}
	tx := s.tx
	s.tx = nil
	s.seq++
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return tx.Generation(), nil
}

// Rollback discards the open transaction.
func (s *Session) Rollback() error {
	if !s.InTx() {
		return fmt.Errorf("engine: no open transaction")
	}
	tx := s.tx
	s.tx = nil
	s.seq++
	return tx.Rollback()
}

// Close rolls back any open transaction.
func (s *Session) Close() error {
	if s.InTx() {
		tx := s.tx
		s.tx = nil
		s.seq++
		return tx.Rollback()
	}
	return nil
}
