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
)

// ErrTxDone reports use of a transaction after Commit or Rollback.
var ErrTxDone = errors.New("engine: transaction has already been committed or rolled back")

// Tx is an open transaction. Statements prepared from it execute on the
// transaction's overlay — the base snapshot plus its own uncommitted
// writes, loaded afresh by each execution, so reads inside the
// transaction see its own writes exactly once and nothing committed
// after Begin. A Tx is bound to one goroutine, like a database/sql
// transaction in practice: its write set is not locked.
type Tx struct {
	db   *DB
	ws   *relation.WriteSet
	done bool
	gen  uint64 // commit generation, set by a successful Commit
}

// Begin opens a transaction against the current committed snapshot.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	db.txBegins.Add(1)
	return &Tx{db: db, ws: db.store.Begin()}, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// openTx makes a Tx the scope of the statements prepared from it: they
// run in it until it is finished, and fail with ErrTxDone after.
func (tx *Tx) openTx() (*Tx, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	return tx, nil
}

// Prepare compiles src against the schema the transaction sees; the
// statement executes inside the transaction.
func (tx *Tx) Prepare(lang Lang, src string) (*Stmt, error) {
	return tx.db.prepare(tx, lang, src, "")
}

// PrepareDatalog prepares a Datalog program selecting the returned
// predicate (empty = the last rule's head).
func (tx *Tx) PrepareDatalog(src, pred string) (*Stmt, error) {
	return tx.db.prepare(tx, LangDatalog, src, pred)
}

// BaseGeneration returns the commit generation of the snapshot the
// transaction reads beneath its own writes.
func (tx *Tx) BaseGeneration() uint64 { return tx.ws.Base().Gen() }

// Query prepares and runs a query against the transaction's overlay.
func (tx *Tx) Query(ctx context.Context, lang Lang, src string, args ...any) (*Rows, error) {
	s, err := tx.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, args...)
}

// QueryAll is the materializing form of Query.
func (tx *Tx) QueryAll(ctx context.Context, lang Lang, src string, args ...any) (*relation.Relation, error) {
	s, err := tx.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return s.QueryAll(ctx, args...)
}

// Exec runs a DML or DDL statement inside the transaction. Transaction
// control is not a statement here: use Commit/Rollback (or a Session
// for SQL-level control).
func (tx *Tx) Exec(ctx context.Context, lang Lang, src string, args ...any) (Result, error) {
	s, err := tx.Prepare(lang, src)
	if err != nil {
		return Result{}, err
	}
	switch s.Kind() {
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

// Session is a connection-scoped execution context: statements prepared
// from it execute in its open transaction whenever there is one — a
// handle prepared once keeps working as transactions open and close
// around it — and on the committed head with autocommit otherwise. It
// also executes SQL transaction control (BEGIN/COMMIT/ROLLBACK) as
// statements. A Session is bound to one goroutine (the server gives
// each connection its own).
type Session struct {
	db *DB
	tx *Tx
}

// NewSession opens a session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// DB returns the session's engine.
func (s *Session) DB() *DB { return s.db }

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.tx != nil && !s.tx.done }

// openTx makes a Session the scope of the statements prepared from it.
func (s *Session) openTx() (*Tx, error) { return s.Tx(), nil }

// Prepare compiles src against the schema the session sees now — the
// open transaction's, or the committed head's. The statement follows the
// session: each execution runs in whatever transaction is open then.
func (s *Session) Prepare(lang Lang, src string) (*Stmt, error) {
	return s.db.prepare(s, lang, src, "")
}

// PrepareDatalog prepares a Datalog program selecting the returned
// predicate.
func (s *Session) PrepareDatalog(src, pred string) (*Stmt, error) {
	return s.db.prepare(s, LangDatalog, src, pred)
}

// Query runs a query in the session's current context.
func (s *Session) Query(ctx context.Context, lang Lang, src string, args ...any) (*Rows, error) {
	st, err := s.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, args...)
}

// QueryAll is the materializing form of Query.
func (s *Session) QueryAll(ctx context.Context, lang Lang, src string, args ...any) (*relation.Relation, error) {
	st, err := s.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return st.QueryAll(ctx, args...)
}

// Exec executes any non-query statement, including SQL transaction
// control: BEGIN opens the session's transaction, COMMIT publishes it
// (reporting the new generation), ROLLBACK discards it.
func (s *Session) Exec(ctx context.Context, lang Lang, src string, args ...any) (Result, error) {
	st, err := s.Prepare(lang, src)
	if err != nil {
		return Result{}, err
	}
	return s.ExecStmt(ctx, st, args...)
}

// ExecStmt executes a prepared statement, routing transaction control
// to the session. A statement prepared through this session writes to
// its open transaction, if any; one prepared from the DB autocommits
// wherever it is executed.
func (s *Session) ExecStmt(ctx context.Context, st *Stmt, args ...any) (Result, error) {
	switch st.Kind() {
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
	return tx.Rollback()
}

// Close rolls back any open transaction.
func (s *Session) Close() error {
	if s.InTx() {
		tx := s.tx
		s.tx = nil
		return tx.Rollback()
	}
	return nil
}
