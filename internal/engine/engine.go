// Package engine is the unified front door to the three query languages
// the paper unifies: SQL, ARC comprehensions, and Datalog all prepare and
// execute through one API, mirroring database/sql's Prepare/Query/Rows
// contract — now including the write path:
//
//	db := engine.Open(rels...)
//	stmt, err := db.Prepare(engine.LangSQL, "select R.A from R where R.B = $1")
//	rows, err := stmt.Query(ctx, 7)
//	for rows.Next() { rows.Scan(&a) }
//	rows.Close()
//
//	res, err := db.Exec(ctx, engine.LangSQL, "insert into R values ($1, $2)", 1, 10)
//	tx, err := db.Begin(ctx)
//	tx.Exec(ctx, engine.LangSQL, "delete from R where R.B > 5")
//	err = tx.Commit()
//
// Prepare parses, validates, and plans ONCE; Query binds arguments and
// executes without re-planning — SQL placeholders ($1, $2, …) are
// plan-time leaves resolved at bind time, and ARC/Datalog statements bind
// named input relations through the evaluator's override slot (a Datalog
// program is lowered to ARC at Prepare and runs on the same evaluator).
// Query returns a streaming cursor driven directly off the internal/exec
// iterator tree (no forced materialization for planner-compiled SQL),
// with context cancellation checked in the operator pull loop and in
// fixpoint rounds.
//
// Concurrency and isolation contract: all data lives in a
// relation.Store — an MVCC sequence of immutable generation-tagged
// snapshots. A prepared statement binds a schema, an execution binds a
// snapshot: every Query loads the relation map current at its start and
// runs on it end to end, so a statement sees the data current when it is
// executed, and a cursor opened before a concurrent committed write
// streams its pre-write snapshot to completion. Writes go through Exec
// (autocommit, retried on conflict) or an explicit Tx
// (first-committer-wins; see Begin — also the way to a stable view
// across several statements). A DB and its prepared statements are safe
// for concurrent use; commits invalidate nothing, and a statement is
// recompiled only when the schema of a relation it names changes.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Lang selects the query language of a prepared statement.
type Lang int

const (
	// LangSQL prepares SQL text with $n placeholders.
	LangSQL Lang = iota
	// LangARC prepares an ARC comprehension.
	LangARC
	// LangDatalog prepares a Datalog program (the statement returns the
	// last rule's head predicate unless PrepareDatalog names another).
	LangDatalog
)

// String names the language.
func (l Lang) String() string {
	switch l {
	case LangSQL:
		return "sql"
	case LangARC:
		return "arc"
	case LangDatalog:
		return "datalog"
	}
	return fmt.Sprintf("lang(%d)", int(l))
}

// DB is one engine instance: the versioned store every statement
// prepared from it runs against, the catalog template (views, abstract
// relations, externals) ARC statements are evaluated under, and the
// statement cache.
type DB struct {
	store *relation.Store

	// durable is the storage backend journaling this DB's commits, nil
	// for an in-memory DB (see durable.go).
	durable *storage.Manager

	// catTmpl carries the non-base catalog entries (views, abstract
	// relations, externals), fixed at Open; base relations live in the
	// store and reach the evaluator with each execution.
	catTmpl *eval.Catalog

	mu   sync.RWMutex // guards conv
	conv convention.Conventions

	cache *stmtCache
	// Prepare-path counters, the statement-cache capacity-planning
	// signal: prepares counts every Prepare (one-shot Query included),
	// cacheHits the subset served from the LRU without recompiling.
	prepares  atomic.Uint64
	cacheHits atomic.Uint64

	// Exec-path counters (see DBStats): per-kind execution counts, the
	// write path's conflict/retry totals, and transaction boundaries.
	queryExecs      atomic.Uint64
	dmlExecs        atomic.Uint64
	ddlExecs        atomic.Uint64
	conflicts       atomic.Uint64
	conflictRetries atomic.Uint64
	txBegins        atomic.Uint64
	txCommits       atomic.Uint64
	txRollbacks     atomic.Uint64
	slowQueries     atomic.Uint64

	// slow is the installed slow-query log, nil when disabled (the
	// per-execution cost of the disabled path is one pointer load).
	slow atomic.Pointer[slowLog]
}

// DBStats is a point-in-time snapshot of the DB's execution counters:
// the prepare path (statement-cache capacity planning), the per-kind
// execution counts, the write path's conflict behaviour, transaction
// boundaries, and the underlying store's commit-path counters.
type DBStats struct {
	Prepares       uint64 // Prepare calls (including one-shot Query/QueryAll) and schema-change recompiles
	CacheHits      uint64 // Prepares served from the statement cache; Prepares-CacheHits counts compilations
	CacheLen       int    // statements currently cached
	CacheEvictions uint64 // statements evicted past the LRU capacity

	QueryExecs uint64 // query executions (Query/QueryAll/QueryTraced)
	DMLExecs   uint64 // DML executions (INSERT/DELETE/fact ops)
	DDLExecs   uint64 // DDL executions (CREATE/DROP TABLE)

	Conflicts       uint64 // first-committer-wins commit rejections seen by the engine
	ConflictRetries uint64 // autocommit executions retried after a conflict

	TxBegins    uint64 // transactions opened
	TxCommits   uint64 // transactions committed successfully
	TxRollbacks uint64 // transactions rolled back

	SlowQueries uint64 // statements recorded by the slow-query log

	// Store is the MVCC store's own commit-path view: generation,
	// published commits, and conflict rejections (which include
	// conflicts raised against write sets the engine retried).
	Store relation.StoreStats

	// Storage is the durable backend's counter snapshot (WAL appends,
	// checkpoints, block cache, recovery time), nil for an in-memory DB.
	Storage *storage.Stats
}

// Stats snapshots the execution counters. Cache hit rate is
// CacheHits/Prepares; servers export the whole block for capacity
// planning and conflict monitoring.
func (db *DB) Stats() DBStats {
	var st *storage.Stats
	if db.durable != nil {
		s := db.durable.Stats()
		st = &s
	}
	return DBStats{
		Prepares:        db.prepares.Load(),
		CacheHits:       db.cacheHits.Load(),
		CacheLen:        db.cache.Len(),
		CacheEvictions:  db.cache.Evictions(),
		QueryExecs:      db.queryExecs.Load(),
		DMLExecs:        db.dmlExecs.Load(),
		DDLExecs:        db.ddlExecs.Load(),
		Conflicts:       db.conflicts.Load(),
		ConflictRetries: db.conflictRetries.Load(),
		TxBegins:        db.txBegins.Load(),
		TxCommits:       db.txCommits.Load(),
		TxRollbacks:     db.txRollbacks.Load(),
		SlowQueries:     db.slowQueries.Load(),
		Store:           db.store.Stats(),
		Storage:         st,
	}
}

// DefaultStmtCacheSize bounds the per-DB prepared-statement LRU.
const DefaultStmtCacheSize = 128

// Open creates an engine over the given base relations, under SQL
// conventions for ARC statements (change with SetConventions).
func Open(rels ...*relation.Relation) *DB {
	return OpenCatalog(eval.NewCatalog(), rels...)
}

// OpenCatalog creates an engine over an existing ARC catalog (keeping its
// views, abstract relations, and externals), registering any extra
// relations. The catalog's base relations become visible to SQL and
// Datalog statements too; the caller's catalog is never mutated.
func OpenCatalog(cat *eval.Catalog, rels ...*relation.Relation) *DB {
	db := &DB{
		catTmpl: cat,
		conv:    convention.SQL(),
		cache:   newStmtCache(DefaultStmtCacheSize),
	}
	all := append(cat.BaseRelations(), rels...)
	db.store = relation.NewStore(all...)
	return db
}

// Store exposes the underlying MVCC store (read-mostly surface: Head for
// snapshots, Gen for the commit generation).
func (db *DB) Store() *relation.Store { return db.store }

// Generation returns the store's current commit generation.
func (db *DB) Generation() uint64 { return db.store.Gen() }

// SetConventions sets the conventions ARC statements prepared afterwards
// evaluate under (part of the statement cache key, so cached statements
// under other conventions are unaffected).
func (db *DB) SetConventions(conv convention.Conventions) *DB {
	db.mu.Lock()
	db.conv = conv
	db.mu.Unlock()
	return db
}

// Register adds or replaces base relations as an unconditional
// administrative commit: it never conflicts. Statements executed
// afterwards read the new relations (recompiled first if an attribute
// list changed); evaluations in flight keep their snapshot.
func (db *DB) Register(rels ...*relation.Relation) *DB {
	db.store.Apply(rels...)
	return db
}

// Relation returns the relation with the given name in the current
// committed snapshot, or nil.
func (db *DB) Relation(name string) *relation.Relation {
	return db.store.Head().Relation(name)
}

// conventions reads the current ARC conventions.
func (db *DB) conventions() convention.Conventions {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.conv
}

// Prepare parses, validates, and plans src once, returning a reusable
// (and concurrently executable) statement that reads, each time it is
// executed, the data committed by then. Statements are cached in an LRU
// keyed by language and source; a compiled statement depends on the
// schema of the relations it names and on nothing else, so a hit stays
// valid across commits and is recompiled only after CREATE/DROP TABLE or
// a Register that changes one of those attribute lists.
func (db *DB) Prepare(lang Lang, src string) (*Stmt, error) {
	return db.prepare(nil, lang, src, "")
}

// PrepareDatalog prepares a Datalog program and selects which predicate
// Query returns (defaults to the last rule's head when pred is empty).
func (db *DB) PrepareDatalog(src, pred string) (*Stmt, error) {
	return db.prepare(nil, LangDatalog, src, pred)
}

// openTx resolves a statement's scope to the transaction it runs in now;
// nil — the DB scope, or a Session outside a transaction — means the
// committed head with autocommit.
func openTx(scope txScope) (*Tx, error) {
	if scope == nil {
		return nil, nil
	}
	return scope.openTx()
}

// relsIn loads the relation map one execution (or compilation) in scope
// reads: the open transaction's overlay, else the committed head. Map
// and relations are shared with every other reader — read-only.
func (db *DB) relsIn(scope txScope) (map[string]*relation.Relation, error) {
	tx, err := openTx(scope)
	if err != nil {
		return nil, err
	}
	return db.rels(tx), nil
}

// rels is relsIn for the transaction tx, or the committed head when tx
// is nil.
func (db *DB) rels(tx *Tx) map[string]*relation.Relation {
	if tx != nil {
		return tx.ws.Rels()
	}
	return db.store.Head().Rels()
}

// prepare is Prepare for the DB (nil scope), a Tx, or a Session: the
// statement is compiled against the schema its scope sees now, and a
// scoped one is a handle of its own on the shared compiled form.
func (db *DB) prepare(scope txScope, lang Lang, src, pred string) (s *Stmt, err error) {
	// Recover-to-error backstop: no parser or planner panic on hostile
	// source may escape this boundary (see PanicError).
	defer recoverTo(&err, "prepare")
	rels, err := db.relsIn(scope)
	if err != nil {
		return nil, err
	}
	s, c, err := db.prepareOn(rels, lang, db.conventions(), src, pred)
	if err != nil || scope == nil {
		return s, err
	}
	scoped := &Stmt{db: db, lang: lang, src: src, pred: pred, conv: s.conv, scope: scope}
	scoped.cur.Store(c)
	return scoped, nil
}

// prepareOn returns the cached statement for (lang, conv, src, pred) and
// its compiled form for the schema of rels, compiling — and counting a
// cache miss — when there is no entry or the entry was compiled against
// another schema. Every compilation of the serving path happens here,
// one per key at a time: whoever arrives while it runs waits for it and
// counts as a hit; a failed compilation is not cached and every waiter
// gets its error.
func (db *DB) prepareOn(rels map[string]*relation.Relation, lang Lang, conv convention.Conventions, src, pred string) (*Stmt, *compiled, error) {
	db.prepares.Add(1)
	key := cacheKey(lang, conv, src, pred)
	for {
		s, c, f, leads := db.cache.acquire(key, rels)
		switch {
		case f == nil:
			db.cacheHits.Add(1)
			return s, c, nil
		case leads:
			cached := s != nil
			if !cached {
				s = &Stmt{db: db, lang: lang, src: src, pred: pred, conv: conv}
			}
			return db.compileFlight(key, f, s, cached, rels)
		}
		f.done.Wait()
		switch {
		case f.err != nil:
			return nil, nil, f.err
		case f.c != nil && f.c.fresh(rels):
			db.cacheHits.Add(1)
			return f.stmt, f.c, nil
		}
		// The flight compiled for another schema (or its leader panicked):
		// take another turn.
	}
}

// compileFlight is the leader's half of prepareOn: compile s for rels,
// publish the result on it and — s not being cached yet — in the cache,
// and land the flight whatever happens, so that no waiter outlives a
// panic here.
func (db *DB) compileFlight(key string, f *flight, s *Stmt, cached bool, rels map[string]*relation.Relation) (*Stmt, *compiled, error) {
	defer func() { db.cache.land(key, f, !cached && f.c != nil) }()
	c, err := compileStmt(s.lang, s.src, s.pred, rels, db.catTmpl, s.conv)
	if err != nil {
		f.err = err
		return nil, nil, err
	}
	s.cur.Store(c)
	f.stmt, f.c = s, c
	return s, c, nil
}

// PrepareARCCollection prepares an already-parsed ARC collection under
// explicit conventions — the facade's entry for callers that hold an AST
// rather than source text. The statement is not cached.
func (db *DB) PrepareARCCollection(col *alt.Collection, conv convention.Conventions) (*Stmt, error) {
	rels, err := db.relsIn(nil)
	if err != nil {
		return nil, err
	}
	c, err := compileARC(col, db.catTmpl, conv, rels)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, lang: LangARC, src: col.String(), conv: conv}
	s.cur.Store(c)
	return s, nil
}

// Query is the convenience one-shot: Prepare (hitting the statement
// cache) then Query.
func (db *DB) Query(ctx context.Context, lang Lang, src string, args ...any) (*Rows, error) {
	s, err := db.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, args...)
}

// QueryAll is the convenience one-shot returning a materialized relation.
func (db *DB) QueryAll(ctx context.Context, lang Lang, src string, args ...any) (*relation.Relation, error) {
	s, err := db.Prepare(lang, src)
	if err != nil {
		return nil, err
	}
	return s.QueryAll(ctx, args...)
}

// checkFromCtx turns a context into the cancellation poll the execution
// layers share. Contexts that can never be cancelled poll nothing. A poll
// is a non-blocking receive on the Done channel and asks Err only after
// it closed: Err takes the context's lock, which a poll per row would pay
// on every row. The closure receives on the channel it captured, not on
// a fresh Done, so a poll is one receive and no call (the capture costs
// a query 8 bytes). A context whose Done is not one channel from call to
// call (which context.Context rules out, but a test double counting polls
// does) is asked Err on every poll.
func checkFromCtx(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	switch {
	case done == nil:
		return nil
	case ctx.Done() != done:
		return ctx.Err
	}
	return func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
}
