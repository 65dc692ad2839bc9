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
// snapshots. Every Query runs against one snapshot end to end, so a
// cursor opened before a concurrent committed write streams its
// pre-write snapshot to completion. Writes go through Exec (autocommit,
// retried on conflict) or an explicit Tx (first-committer-wins; see
// Begin). A DB and its prepared statements are safe for concurrent use;
// the statement cache revalidates against the store's single commit
// generation, so a Prepare after any commit re-prepares against the new
// snapshot while a held *Stmt keeps its own.
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
// relations, externals) projected onto each snapshot, and the
// generation-versioned statement cache.
type DB struct {
	store *relation.Store

	// durable is the storage backend journaling this DB's commits, nil
	// for an in-memory DB (see durable.go).
	durable *storage.Manager

	mu sync.RWMutex
	// catTmpl carries the non-base catalog entries (views, abstract
	// relations, externals); base relations live in the store and are
	// projected in per snapshot via catalogAt.
	catTmpl *eval.Catalog
	conv    convention.Conventions

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

	// catMu guards the per-generation memoized snapshot catalog.
	catMu    sync.Mutex
	catGen   uint64
	catCache *eval.Catalog
}

// DBStats is a point-in-time snapshot of the DB's execution counters:
// the prepare path (statement-cache capacity planning), the per-kind
// execution counts, the write path's conflict behaviour, transaction
// boundaries, and the underlying store's commit-path counters.
type DBStats struct {
	Prepares       uint64 // Prepare calls (including one-shot Query/QueryAll)
	CacheHits      uint64 // Prepares served from the statement cache
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
// administrative commit: it never conflicts, and the commit-generation
// bump invalidates cached statements. Evaluations in flight keep their
// snapshot.
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

// catalogAt projects the catalog template onto a snapshot's relations,
// memoized per commit generation (ARC prepares against the same snapshot
// reuse one projection).
func (db *DB) catalogAt(snap *relation.Snapshot) *eval.Catalog {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if db.catCache != nil && db.catGen == snap.Gen() {
		return db.catCache
	}
	db.mu.RLock()
	tmpl := db.catTmpl
	db.mu.RUnlock()
	cat := tmpl.CloneWithBase(snap.Rels())
	db.catGen, db.catCache = snap.Gen(), cat
	return cat
}

// catalogFor projects the template onto an arbitrary relation map (a
// transaction overlay) without memoization.
func (db *DB) catalogFor(rels map[string]*relation.Relation) *eval.Catalog {
	db.mu.RLock()
	tmpl := db.catTmpl
	db.mu.RUnlock()
	return tmpl.CloneWithBase(rels)
}

// Prepare parses, validates, and plans src once, returning a reusable
// (and concurrently executable) statement. Statements are cached in a
// generation-versioned LRU keyed by language and source: a hit is valid
// exactly while the store's commit generation is unchanged, so any
// committed write or Register re-prepares against the new snapshot
// instead of serving a stale compilation.
func (db *DB) Prepare(lang Lang, src string) (*Stmt, error) {
	return db.prepare(lang, src, "")
}

// PrepareDatalog prepares a Datalog program and selects which predicate
// Query returns (defaults to the last rule's head when pred is empty).
func (db *DB) PrepareDatalog(src, pred string) (*Stmt, error) {
	return db.prepare(LangDatalog, src, pred)
}

func (db *DB) prepare(lang Lang, src, pred string) (s *Stmt, err error) {
	// Recover-to-error backstop: no parser or planner panic on hostile
	// source may escape this boundary (see PanicError).
	defer recoverTo(&err, "prepare")
	db.prepares.Add(1)
	conv := db.conventions()
	key := cacheKey(lang, conv, src, pred)
	if s := db.cache.lookup(key, db); s != nil {
		db.cacheHits.Add(1)
		return s, nil
	}
	// The snapshot is loaded once and both the compile and the cache
	// entry's generation come from it: if a commit lands after the load,
	// the stored generation is already stale and the next Prepare
	// recompiles — never the reverse (a statement bound to replaced
	// relations served as valid).
	snap := db.store.Head()
	s, err = compileStmt(db, lang, src, pred, copyRels(snap.Rels()), db.catalogAt(snap), conv)
	if err != nil {
		return nil, err
	}
	s.gen = snap.Gen()
	db.cache.store(key, s, snap.Gen())
	return s, nil
}

// copyRels copies a snapshot's relation map before handing it to a
// compilation: evaluators extend their relation map with CTE names, and
// the snapshot's map is shared.
func copyRels(src map[string]*relation.Relation) map[string]*relation.Relation {
	out := make(map[string]*relation.Relation, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// PrepareARCCollection prepares an already-parsed ARC collection under
// explicit conventions — the facade's entry for callers that hold an AST
// rather than source text. The statement is not cached.
func (db *DB) PrepareARCCollection(col *alt.Collection, conv convention.Conventions) (*Stmt, error) {
	snap := db.store.Head()
	return compileARC(db, col, col.String(), db.catalogAt(snap), conv)
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
// layers share. Contexts that can never be cancelled poll nothing.
func checkFromCtx(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}
