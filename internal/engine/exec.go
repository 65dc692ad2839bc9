// exec.go is the engine's write path: Exec runs DML (INSERT, DELETE,
// fact ops) and DDL (CREATE TABLE) statements. Outside a transaction a
// statement autocommits — its write set is built against the current
// snapshot and committed first-committer-wins, retried a bounded number
// of times on conflict. Inside a transaction (see tx.go) the statement
// applies to the transaction's write set and becomes visible to others
// only at Commit.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// ErrConflict reports a first-committer-wins write conflict: another
// transaction committed a change to a relation this one wrote, after
// this one began. Retry the transaction against the new snapshot.
var ErrConflict = relation.ErrConflict

// maxExecRetries bounds the autocommit retry loop: under sustained
// write contention Exec retries against each new snapshot rather than
// spinning forever.
const maxExecRetries = 16

// Result reports what a write changed.
type Result struct {
	// RowsAffected counts inserted/removed row occurrences (bag
	// multiplicities included), 0 for DDL.
	RowsAffected int64
	// Generation is the store commit generation at which the write
	// became visible, and 0 when the write is buffered in an open
	// transaction (visibility arrives with the transaction's Commit).
	Generation uint64
}

// Exec executes a one-shot write statement with autocommit: the
// convenience form of Prepare + Stmt.Exec. BEGIN/COMMIT/ROLLBACK are
// session state and are rejected here — use Begin/Tx or a Session.
func (db *DB) Exec(ctx context.Context, lang Lang, src string, args ...any) (Result, error) {
	s, err := db.Prepare(lang, src)
	if err != nil {
		return Result{}, err
	}
	return s.Exec(ctx, args...)
}

// Exec executes a DML or DDL statement. A statement prepared from the
// DB autocommits (with bounded first-committer-wins retries); a
// statement prepared from a Tx or an in-transaction Session applies to
// that transaction's write set and reports Generation 0 until the
// transaction commits. Exec on a query statement is an error, as is
// Exec on BEGIN/COMMIT/ROLLBACK outside a session.
func (s *Stmt) Exec(ctx context.Context, args ...any) (res Result, err error) {
	defer recoverTo(&err, "exec")
	c := s.cur.Load()
	switch c.kind {
	case KindDML:
		s.db.dmlExecs.Add(1)
	case KindDDL:
		s.db.ddlExecs.Add(1)
	case KindQuery:
		return Result{}, fmt.Errorf("engine: query statement returns rows; use Query")
	default:
		return Result{}, fmt.Errorf("engine: %s is transaction control; run it through a Session or use Begin/Commit/Rollback", c.kind)
	}
	// What arguments a statement takes is fixed by its text, whatever
	// schema it is (re)compiled against.
	vals, _, err := s.splitArgs(c, args)
	if err != nil {
		return Result{}, err
	}
	check := checkFromCtx(ctx)
	if check != nil {
		if err := check(); err != nil {
			return Result{}, err
		}
	}
	start := time.Now()
	tx, err := openTx(s.scope)
	if err != nil {
		return Result{}, err
	}
	retries := 0
	if tx != nil {
		res.RowsAffected, err = s.applyTo(tx.ws, vals, check)
	} else {
		res, retries, err = s.autocommit(vals, check)
	}
	if err != nil {
		return Result{}, err
	}
	s.db.observeSlow(s.lang, c.kind, s.src, time.Since(start), res.RowsAffected, retries, nil)
	return res, nil
}

// autocommit applies the statement to a fresh write set against the
// current snapshot and commits, retrying on first-committer-wins
// conflicts: each attempt is an execution of its own, on its own write
// set's relations. The retry count it reports feeds the slow-query log.
func (s *Stmt) autocommit(vals []value.Value, check func() error) (Result, int, error) {
	db := s.db
	for attempt := 0; ; attempt++ {
		if check != nil {
			if err := check(); err != nil {
				return Result{}, attempt, err
			}
		}
		ws := db.store.Begin()
		n, err := s.applyTo(ws, vals, check)
		if err != nil {
			return Result{}, attempt, err
		}
		snap, err := db.store.Commit(ws)
		if err == nil {
			return Result{RowsAffected: n, Generation: snap.Gen()}, attempt, nil
		}
		if errors.Is(err, relation.ErrConflict) {
			db.conflicts.Add(1)
			if attempt < maxExecRetries {
				db.conflictRetries.Add(1)
				continue
			}
		}
		return Result{}, attempt, err
	}
}

// applyTo executes the statement on a write set — an autocommit scratch
// set or an open transaction's — returning the affected row-occurrence
// count: the write set's overlay is the relation map of this execution,
// which the compiled form is checked against and any embedded query
// reads.
func (s *Stmt) applyTo(ws *relation.WriteSet, vals []value.Value, check func() error) (int64, error) {
	rels := ws.Rels()
	c, err := s.on(rels)
	if err != nil {
		return 0, err
	}
	if c.ops != nil {
		return applyFactOps(ws, c.ops)
	}
	switch st := c.st.(type) {
	case *sql.Insert:
		return c.applyInsert(ws, rels, st, vals, check)
	case *sql.Delete:
		return c.applyDelete(ws, rels, st, vals, check)
	case *sql.Update:
		return c.applyUpdate(ws, rels, st, vals, check)
	case *sql.CreateTable:
		return 0, ws.Create(st.Name, st.Cols)
	case *sql.DropTable:
		return 0, ws.Drop(st.Name)
	}
	return 0, fmt.Errorf("engine: statement %q has no write recipe", s.src)
}

// applyInsert inserts VALUES rows (constant-evaluated against the bound
// placeholders) or the materialized rows of the source query, mapping
// them onto the target's columns; unnamed columns of a column-list
// INSERT receive NULL.
func (c *compiled) applyInsert(ws *relation.WriteSet, rels map[string]*relation.Relation, ins *sql.Insert, vals []value.Value, check func() error) (int64, error) {
	target := ws.Relation(ins.Table)
	if target == nil {
		return 0, fmt.Errorf("engine: INSERT into unknown relation %q", ins.Table)
	}
	width := target.Arity()
	pos := c.insPos
	if len(ins.Cols) > 0 {
		width = len(ins.Cols)
	}
	emit := func(row relation.Tuple, mult int) error {
		if len(row) != width {
			return fmt.Errorf("engine: INSERT into %s: got %d value(s), want %d", ins.Table, len(row), width)
		}
		t := row
		if pos != nil {
			t = make(relation.Tuple, target.Arity())
			for i := range t {
				t[i] = value.Null()
			}
			for i, p := range pos {
				t[p] = row[i]
			}
		}
		return ws.Insert(ins.Table, t, mult)
	}
	var n int64
	if ins.Query == nil {
		for _, exprs := range ins.Rows {
			row := make(relation.Tuple, len(exprs))
			for i, e := range exprs {
				v, err := constEval(e, vals)
				if err != nil {
					return 0, err
				}
				row[i] = v
			}
			if err := emit(row, 1); err != nil {
				return 0, err
			}
			n++
		}
		return n, nil
	}
	src, err := c.runQuery(rels, vals, check)
	if err != nil {
		return 0, err
	}
	var emitErr error
	src.EachWhile(func(t relation.Tuple, m int) bool {
		if emitErr = emit(t, m); emitErr != nil {
			return false
		}
		n += int64(m)
		return true
	})
	return n, emitErr
}

// applyDelete runs the compiled matching-rows query and removes every
// occurrence of the matched tuples from the target.
func (c *compiled) applyDelete(ws *relation.WriteSet, rels map[string]*relation.Relation, del *sql.Delete, vals []value.Value, check func() error) (int64, error) {
	if ws.Relation(del.Table) == nil {
		return 0, fmt.Errorf("engine: DELETE from unknown relation %q", del.Table)
	}
	matched, err := c.runQuery(rels, vals, check)
	if err != nil {
		return 0, err
	}
	tuples := matched.Tuples()
	if len(tuples) == 0 {
		return 0, nil
	}
	removed, err := ws.Delete(del.Table, tuples)
	if err != nil {
		return 0, err
	}
	return int64(removed), nil
}

// applyUpdate runs the compiled matching-rows query — each matched row
// followed by its SET values — then removes the matched tuples and
// re-inserts the rewritten ones with their multiplicities. Deletes all
// land before the first insert, so updates that permute existing tuples
// (key swaps) cannot clobber each other's rows.
func (c *compiled) applyUpdate(ws *relation.WriteSet, rels map[string]*relation.Relation, up *sql.Update, vals []value.Value, check func() error) (int64, error) {
	target := ws.Relation(up.Table)
	if target == nil {
		return 0, fmt.Errorf("engine: UPDATE unknown relation %q", up.Table)
	}
	arity := target.Arity()
	pos := c.insPos
	matched, err := c.runQuery(rels, vals, check)
	if err != nil {
		return 0, err
	}
	var olds, news []relation.Tuple
	var mults []int
	matched.Each(func(t relation.Tuple, m int) {
		nw := append(relation.Tuple(nil), t[:arity]...)
		for i, p := range pos {
			nw[p] = t[arity+i]
		}
		olds = append(olds, t[:arity])
		news = append(news, nw)
		mults = append(mults, m)
	})
	if len(olds) == 0 {
		return 0, nil
	}
	removed, err := ws.Delete(up.Table, olds)
	if err != nil {
		return 0, err
	}
	for i, nw := range news {
		if err := ws.Insert(up.Table, nw, mults[i]); err != nil {
			return 0, err
		}
	}
	return int64(removed), nil
}

// applyFactOps applies an assertion/retraction batch in order.
func applyFactOps(ws *relation.WriteSet, ops []factOp) (int64, error) {
	var n int64
	for _, op := range ops {
		target := ws.Relation(op.rel)
		if target == nil {
			return n, fmt.Errorf("engine: fact op on unknown relation %q", op.rel)
		}
		if len(op.tuple) != target.Arity() {
			return n, fmt.Errorf("engine: %s takes %d argument(s), got %d", op.rel, target.Arity(), len(op.tuple))
		}
		if op.assert {
			if err := ws.Insert(op.rel, op.tuple, 1); err != nil {
				return n, err
			}
			n++
			continue
		}
		removed, err := ws.Delete(op.rel, []relation.Tuple{op.tuple})
		if err != nil {
			return n, err
		}
		n += int64(removed)
	}
	return n, nil
}
