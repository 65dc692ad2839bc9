// Package core is the public facade of the ARC library: one import that
// exposes parsing (all three input languages), validation, evaluation
// under conventions, translation (SQL ↔ ARC, Datalog → ARC, TRC → ARC),
// the three modalities (comprehension text, ALT, higraph), and pattern
// analysis. The examples and command-line tools are written against this
// surface.
//
// Evaluation flows through internal/engine, the unified prepared-
// statement front door for all three languages: OpenEngine exposes it
// directly (Prepare once, Query many, streaming Rows cursors, race-safe
// concurrent sessions), while the one-shot Eval/EvalSQL/EvalDatalog
// functions remain as thin shims over it for compatibility.
package core

import (
	"context"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/arc2sql"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/higraph"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/sql2arc"
	"repro/internal/trc"
)

// Re-exported types. The facade keeps the one-package import ergonomic
// without duplicating implementations.
type (
	// Collection is an ARC comprehension (the unit of definition).
	Collection = alt.Collection
	// Sentence is a Boolean ARC statement.
	Sentence = alt.Sentence
	// Relation is a flat named-perspective relation (set or bag).
	Relation = relation.Relation
	// Tuple is one row.
	Tuple = relation.Tuple
	// Catalog is the evaluation environment.
	Catalog = eval.Catalog
	// Conventions bundles the orthogonal semantic switches.
	Conventions = convention.Conventions
	// Signature is a relational-pattern summary.
	Signature = pattern.Signature
	// Higraph is the diagrammatic modality's data structure.
	Higraph = higraph.Graph
)

// Convention presets (Section 2.6/2.7).
var (
	// SetLogic: set semantics, 3VL, SQL aggregate conventions.
	SetLogic = convention.SetLogic
	// SQL: bag semantics, 3VL, SUM over empty = NULL.
	SQL = convention.SQL
	// SQLDistinct: SQL conventions with set output.
	SQLDistinct = convention.SQLDistinct
	// Souffle: set semantics, 2VL, SUM over empty = 0.
	Souffle = convention.Souffle
)

// --- Engine API (the unified front door) ----------------------------------

// Engine re-exports: one DB holds the catalog, statements prepare once
// (parse + validate + plan) and execute many times, Query returns a
// streaming Rows cursor, and N sessions may execute prepared statements
// concurrently. See internal/engine for the full contract.
type (
	// Engine is a prepared-statement database over the three languages.
	Engine = engine.DB
	// Stmt is a prepared statement (Query/QueryAll/Exec/Kind/Columns).
	Stmt = engine.Stmt
	// Rows is a streaming result cursor (Next/Scan/Columns/Close/Err).
	Rows = engine.Rows
	// Lang selects a statement's language.
	Lang = engine.Lang
	// Input is a named input-relation binding for ARC/Datalog statements.
	Input = engine.Binding
	// Result reports what a write changed (rows affected + generation).
	Result = engine.Result
	// StmtKind distinguishes query, DML, DDL, and transaction control.
	StmtKind = engine.StmtKind
	// Tx is an open transaction (Prepare/Query/Exec/Commit/Rollback),
	// mirroring database/sql: snapshot-isolated reads, private write
	// set, first-committer-wins commit.
	Tx = engine.Tx
	// Session is a connection-scoped context that executes SQL-level
	// BEGIN/COMMIT/ROLLBACK as statements.
	Session = engine.Session
)

// Language selectors for Engine.Prepare.
const (
	LangSQL     = engine.LangSQL
	LangARC     = engine.LangARC
	LangDatalog = engine.LangDatalog
)

// Statement kinds reported by Stmt.Kind.
const (
	KindQuery    = engine.KindQuery
	KindDML      = engine.KindDML
	KindDDL      = engine.KindDDL
	KindBegin    = engine.KindBegin
	KindCommit   = engine.KindCommit
	KindRollback = engine.KindRollback
)

// Write-path sentinel errors.
var (
	// ErrConflict reports a first-committer-wins commit loss; retry the
	// transaction against the new snapshot.
	ErrConflict = engine.ErrConflict
	// ErrTxDone reports use of a committed/rolled-back transaction.
	ErrTxDone = engine.ErrTxDone
	// ErrDMLBinding reports a relation binding passed to a non-query.
	ErrDMLBinding = engine.ErrDMLBinding
)

// OpenEngine creates an engine over base relations.
func OpenEngine(rels ...*Relation) *Engine { return engine.Open(rels...) }

// OpenEngineCatalog creates an engine over an existing catalog (views,
// abstract relations, and externals included).
func OpenEngineCatalog(cat *Catalog, rels ...*Relation) *Engine {
	return engine.OpenCatalog(cat, rels...)
}

// Bind builds a named input binding for ARC/Datalog statement execution.
func Bind(name string, rel *Relation) Input { return engine.In(name, rel) }

// NewRelation creates an empty relation.
func NewRelation(name string, attrs ...string) *Relation { return relation.New(name, attrs...) }

// NewCatalog creates an empty catalog; chain AddRelation / DefineView /
// DefineAbstract / WithStandardExternals.
func NewCatalog() *Catalog { return eval.NewCatalog() }

// ParseARC parses ARC comprehension syntax (auto-detecting collection vs
// sentence).
func ParseARC(src string) (*Collection, *Sentence, error) { return arc.Parse(src) }

// ParseARCCollection parses a "{Head | Body}" comprehension.
func ParseARCCollection(src string) (*Collection, error) { return arc.ParseCollection(src) }

// ParseTRC parses the loose textbook TRC form and normalizes it into a
// strict ARC collection (Section 2.1).
func ParseTRC(src string) (*Collection, error) {
	q, err := trc.Parse(src)
	if err != nil {
		return nil, err
	}
	col, _, err := q.Normalize()
	return col, err
}

// Validate links and validates a collection as a strict query, returning
// the annotation (the higraph cross-references).
func Validate(col *Collection) (*alt.Link, error) { return alt.ValidateCollection(col) }

// ExplainARC renders the tuple-level query plan of every quantifier
// scope in col (or why a scope stays on environment enumeration).
func ExplainARC(col *Collection, cat *Catalog, conv Conventions) (string, error) {
	return eval.ExplainCollection(col, cat, conv, nil)
}

// ExplainSQL renders the physical plan the SQL planner compiles src
// onto; the error reports the bailout reason for unplannable queries.
func ExplainSQL(src string, rels ...*Relation) (string, error) {
	stmt, err := engine.Open(rels...).Prepare(engine.LangSQL, src)
	if err != nil {
		return "", err
	}
	return stmt.Explain()
}

// Eval evaluates a collection against a catalog under conventions — a
// one-shot shim over the engine (prefer OpenEngineCatalog + Prepare for
// repeated execution).
func Eval(col *Collection, cat *Catalog, conv Conventions) (*Relation, error) {
	stmt, err := engine.OpenCatalog(cat).PrepareARCCollection(col, conv)
	if err != nil {
		return nil, err
	}
	return stmt.QueryAll(context.Background())
}

// EvalSentence evaluates a Boolean sentence.
func EvalSentence(s *Sentence, cat *Catalog, conv Conventions) (bool, error) {
	return eval.EvalSentence(s, cat, conv)
}

// FromSQL translates a SQL string into ARC (Section 5's SQL → ARC
// direction, with the paper's canonical encodings).
func FromSQL(src string) (*Collection, error) { return sql2arc.TranslateString(src) }

// ToSQL renders an ARC collection back to SQL text.
func ToSQL(col *Collection) (string, error) { return arc2sql.RenderString(col) }

// EvalSQL runs a SQL string directly on relations with standard SQL
// semantics — a one-shot shim over the engine (prefer OpenEngine +
// Prepare with $n placeholders for repeated execution).
func EvalSQL(src string, rels ...*Relation) (*Relation, error) {
	return engine.Open(rels...).QueryAll(context.Background(), engine.LangSQL, src)
}

// FromDatalog parses a Datalog program and translates one predicate into
// ARC; schemas names the attributes of every predicate used.
func FromDatalog(src string, schemas map[string][]string, pred string) (*Collection, error) {
	p, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	return datalog.ToARC(p, schemas, pred)
}

// EvalDatalog runs a Datalog program under Soufflé conventions and
// returns one predicate — a one-shot shim over the engine (prefer
// OpenEngine + PrepareDatalog for repeated execution).
func EvalDatalog(src string, pred string, rels ...*Relation) (*Relation, error) {
	stmt, err := engine.Open(rels...).PrepareDatalog(src, pred)
	if err != nil {
		return nil, err
	}
	return stmt.QueryAll(context.Background())
}

// ALT renders the machine-facing tree modality (Fig 2a).
func ALT(col *Collection) string { return alt.PrintTree(col) }

// HigraphOf builds the diagrammatic modality (Fig 2b); render with
// .ASCII() or .SVG().
func HigraphOf(col *Collection) (*Higraph, error) { return higraph.Build(col) }

// PatternSignature computes the relational-pattern summary.
func PatternSignature(col *Collection) (*Signature, error) { return pattern.ComputeSignature(col) }

// PatternSimilarity scores two patterns in [0,1].
func PatternSimilarity(a, b *Signature) float64 { return pattern.Similarity(a, b) }

// ClassifyAggregation reports FIO vs FOI (Section 2.5).
func ClassifyAggregation(col *Collection) (pattern.AggPattern, error) {
	return pattern.ClassifyAggregation(col)
}

// LintCountBug flags the Fig 21b decorrelation hazard.
func LintCountBug(col *Collection) ([]pattern.Finding, error) { return pattern.LintCountBug(col) }

// ParseSQL exposes the SQL parser for tooling.
func ParseSQL(src string) (sql.Query, error) { return sql.Parse(src) }
