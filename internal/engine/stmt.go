package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/sqleval"
	"repro/internal/trace"
	"repro/internal/value"
)

// Binding names an input relation for ARC and Datalog statement
// execution: both read it through the evaluator's override slot
// (shadowing a catalog relation of the same name for that execution
// only). ARC names attributes, so the bound relation must carry the ones
// the query reads; Datalog atoms are positional, so only its arity
// matters. Bindings are a query-only affordance — binding a relation to
// a DML statement is ErrDMLBinding.
type Binding struct {
	Name string
	Rel  *relation.Relation
}

// In builds a named input binding.
func In(name string, rel *relation.Relation) Binding { return Binding{Name: name, Rel: rel} }

// ErrDMLBinding is returned when an engine.In relation binding is passed
// to a DML or DDL statement: writes name their target in the statement
// text, and an override relation would make the write target ambiguous.
var ErrDMLBinding = errors.New("engine: relation bindings apply to queries only, not DML/DDL statements")

// StmtKind classifies what a prepared statement does when run, so
// callers (and the wire server) can route it: Query through
// Query/cursors, DML and DDL through Exec, and transaction control
// through a session.
type StmtKind int

const (
	// KindQuery returns rows (SELECT, ARC collections, Datalog programs).
	KindQuery StmtKind = iota
	// KindDML writes data (INSERT, DELETE, ARC/Datalog fact ops).
	KindDML
	// KindDDL changes the schema (CREATE TABLE).
	KindDDL
	// KindBegin is BEGIN / START TRANSACTION.
	KindBegin
	// KindCommit is COMMIT.
	KindCommit
	// KindRollback is ROLLBACK.
	KindRollback
)

// String names the kind.
func (k StmtKind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindDML:
		return "dml"
	case KindDDL:
		return "ddl"
	case KindBegin:
		return "begin"
	case KindCommit:
		return "commit"
	case KindRollback:
		return "rollback"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Returns whether statements of this kind stream rows.
func (k StmtKind) ReturnsRows() bool { return k == KindQuery }

// Stmt is a prepared statement: parsed, validated, and (for SQL inside
// the planner fragment) compiled exactly once at Prepare. A Stmt is
// immutable and safe for concurrent Query calls; it is bound to the
// snapshot current at Prepare time (the statement cache revalidates on
// the store's commit generation, so a later Prepare reflects new
// commits). Statements prepared inside a transaction track the
// transaction's write set instead: each execution resolves through the
// per-transaction cache, so it sees the transaction's own uncommitted
// writes exactly once per write version.
type Stmt struct {
	db      *DB
	lang    Lang
	kind    StmtKind
	src     string
	cols    []string
	nparams int
	gen     uint64 // store commit generation the snapshot compiled under
	ver     uint64 // write-set version, for transaction-owned statements
	tx      *Tx    // non-nil when prepared inside a transaction

	// SQL query machinery — also the embedded query of INSERT … SELECT
	// and the synthetic full-row SELECT of DELETE … WHERE.
	q       sql.Query
	plan    *plan.Plan // nil → enumeration fallback
	planErr error      // the planner's bailout reason, for Explain
	rels    sqleval.DB // prepare-time relation snapshot (or tx overlay)

	// SQL DML/DDL
	st     sql.Statement // *sql.Insert, *sql.Delete, *sql.Update, *sql.CreateTable
	insPos []int         // INSERT/UPDATE: target column of each written value

	// ARC / Datalog fact ops
	ops []factOp

	// ARC, and Datalog lowered to ARC (the target predicate's collection;
	// the program's other predicates are views of cat)
	col  *alt.Collection
	link *alt.Link
	cat  *eval.Catalog
	conv convention.Conventions

	// lastTrace holds the trace of the most recent traced execution
	// through this handle (QueryTraced / ExplainAnalyze), for callers
	// that drain a cursor first and inspect the statistics after.
	lastTrace atomic.Pointer[trace.Trace]
}

// compileStmt prepares one statement in the given language.
func compileStmt(db *DB, lang Lang, src, pred string, rels map[string]*relation.Relation, cat *eval.Catalog, conv convention.Conventions) (*Stmt, error) {
	switch lang {
	case LangSQL:
		return compileSQL(db, src, rels)
	case LangARC, LangDatalog:
		if isFactOps(src) {
			return compileFactOps(db, lang, src, rels)
		}
		if lang == LangDatalog {
			return compileDatalog(db, src, pred, rels, nil)
		}
		col, err := arc.ParseCollection(src)
		if err != nil {
			return nil, err
		}
		return compileARC(db, col, src, cat, conv)
	}
	return nil, fmt.Errorf("engine: unknown language %v", lang)
}

func compileSQL(db *DB, src string, rels map[string]*relation.Relation) (*Stmt, error) {
	st, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	switch x := st.(type) {
	case sql.Query:
		return compileSQLQuery(db, src, x, rels)
	case *sql.Insert:
		return compileInsert(db, src, x, rels)
	case *sql.Delete:
		return compileDelete(db, src, x, rels)
	case *sql.Update:
		return compileUpdate(db, src, x, rels)
	case *sql.CreateTable:
		seen := map[string]bool{}
		for _, c := range x.Cols {
			if seen[c] {
				return nil, fmt.Errorf("engine: CREATE TABLE %s: duplicate column %q", x.Name, c)
			}
			seen[c] = true
		}
		return &Stmt{db: db, lang: LangSQL, kind: KindDDL, src: src, st: x}, nil
	case *sql.DropTable:
		if _, ok := rels[x.Name]; !ok {
			return nil, fmt.Errorf("engine: DROP TABLE %s: unknown relation", x.Name)
		}
		return &Stmt{db: db, lang: LangSQL, kind: KindDDL, src: src, st: x}, nil
	case *sql.BeginStmt:
		return &Stmt{db: db, lang: LangSQL, kind: KindBegin, src: src}, nil
	case *sql.CommitStmt:
		return &Stmt{db: db, lang: LangSQL, kind: KindCommit, src: src}, nil
	case *sql.RollbackStmt:
		return &Stmt{db: db, lang: LangSQL, kind: KindRollback, src: src}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

func compileSQLQuery(db *DB, src string, q sql.Query, rels map[string]*relation.Relation) (*Stmt, error) {
	s := &Stmt{
		db:      db,
		lang:    LangSQL,
		kind:    KindQuery,
		src:     src,
		q:       q,
		nparams: sql.MaxParam(q),
		rels:    rels,
	}
	if p, err := plan.Compile(q, rels); err == nil {
		s.plan = p
		s.cols = p.Attrs()
	} else {
		if !errors.Is(err, plan.ErrNotPlannable) {
			return nil, err
		}
		s.planErr = err
		s.cols = sqlColumns(q)
	}
	return s, nil
}

// compileInsert validates an INSERT against the target relation and, for
// the INSERT … SELECT form, compiles the source query. VALUES rows must
// be constant expressions over literals, $n placeholders, and
// arithmetic; their width (and the source query's) must match the
// written column list.
func compileInsert(db *DB, src string, ins *sql.Insert, rels map[string]*relation.Relation) (*Stmt, error) {
	target, ok := rels[ins.Table]
	if !ok {
		return nil, fmt.Errorf("engine: INSERT into unknown relation %q", ins.Table)
	}
	s := &Stmt{
		db:      db,
		lang:    LangSQL,
		kind:    KindDML,
		src:     src,
		st:      ins,
		nparams: sql.MaxParamStmt(ins),
		rels:    rels,
	}
	width := target.Arity()
	if len(ins.Cols) > 0 {
		width = len(ins.Cols)
		s.insPos = make([]int, width)
		seen := map[string]bool{}
		for i, c := range ins.Cols {
			pos := target.AttrIndex(c)
			if pos < 0 {
				return nil, fmt.Errorf("engine: INSERT into %s: unknown column %q", ins.Table, c)
			}
			if seen[c] {
				return nil, fmt.Errorf("engine: INSERT into %s: column %q written twice", ins.Table, c)
			}
			seen[c] = true
			s.insPos[i] = pos
		}
	}
	if ins.Query == nil {
		for ri, row := range ins.Rows {
			if len(row) != width {
				return nil, fmt.Errorf("engine: INSERT into %s: row %d has %d value(s), want %d", ins.Table, ri+1, len(row), width)
			}
			for _, e := range row {
				if err := checkConstExpr(e); err != nil {
					return nil, fmt.Errorf("engine: INSERT into %s: %w", ins.Table, err)
				}
			}
		}
		return s, nil
	}
	s.q = ins.Query
	if p, err := plan.Compile(ins.Query, rels); err == nil {
		s.plan = p
		if got := len(p.Attrs()); got != width {
			return nil, fmt.Errorf("engine: INSERT into %s: query yields %d column(s), want %d", ins.Table, got, width)
		}
	} else {
		if !errors.Is(err, plan.ErrNotPlannable) {
			return nil, err
		}
		s.planErr = err
		if got := len(sqlColumns(ins.Query)); got != width {
			return nil, fmt.Errorf("engine: INSERT into %s: query yields %d column(s), want %d", ins.Table, got, width)
		}
	}
	return s, nil
}

// compileDelete lowers DELETE FROM t [alias] WHERE cond into a synthetic
// full-row SELECT over the target (so the WHERE runs through the planner
// like any query), executed at Exec time to enumerate the tuples to
// remove.
func compileDelete(db *DB, src string, del *sql.Delete, rels map[string]*relation.Relation) (*Stmt, error) {
	target, ok := rels[del.Table]
	if !ok {
		return nil, fmt.Errorf("engine: DELETE from unknown relation %q", del.Table)
	}
	b := del.Binding()
	items := make([]sql.SelectItem, target.Arity())
	for i, a := range target.Attrs() {
		items[i] = sql.SelectItem{Expr: &sql.ColRef{Table: b, Column: a}, Alias: a}
	}
	q := &sql.Select{
		Items: items,
		From:  []sql.TableRef{&sql.BaseTable{Name: del.Table, Alias: del.Alias}},
		Where: del.Where,
	}
	s := &Stmt{
		db:      db,
		lang:    LangSQL,
		kind:    KindDML,
		src:     src,
		st:      del,
		q:       q,
		nparams: sql.MaxParamStmt(del),
		rels:    rels,
	}
	if p, err := plan.Compile(q, rels); err == nil {
		s.plan = p
	} else {
		if !errors.Is(err, plan.ErrNotPlannable) {
			return nil, err
		}
		s.planErr = err
	}
	return s, nil
}

// compileUpdate lowers UPDATE t SET … WHERE … into a synthetic SELECT
// projecting the target's full row followed by each SET expression, so
// row matching and new-value computation both run through the planner
// (range and probe pushdown included) like any query. Exec removes each
// matched tuple's occurrences and re-inserts the rewritten tuples.
func compileUpdate(db *DB, src string, up *sql.Update, rels map[string]*relation.Relation) (*Stmt, error) {
	target, ok := rels[up.Table]
	if !ok {
		return nil, fmt.Errorf("engine: UPDATE unknown relation %q", up.Table)
	}
	pos := make([]int, len(up.Cols))
	seen := map[string]bool{}
	for i, c := range up.Cols {
		p := target.AttrIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("engine: UPDATE %s: unknown column %q", up.Table, c)
		}
		if seen[c] {
			return nil, fmt.Errorf("engine: UPDATE %s: column %q set twice", up.Table, c)
		}
		seen[c] = true
		pos[i] = p
	}
	b := up.Binding()
	items := make([]sql.SelectItem, 0, target.Arity()+len(up.Cols))
	for _, a := range target.Attrs() {
		items = append(items, sql.SelectItem{Expr: &sql.ColRef{Table: b, Column: a}, Alias: a})
	}
	for i, e := range up.Exprs {
		items = append(items, sql.SelectItem{Expr: e, Alias: fmt.Sprintf("set_%d", i)})
	}
	q := &sql.Select{
		Items: items,
		From:  []sql.TableRef{&sql.BaseTable{Name: up.Table, Alias: up.Alias}},
		Where: up.Where,
	}
	s := &Stmt{
		db:      db,
		lang:    LangSQL,
		kind:    KindDML,
		src:     src,
		st:      up,
		q:       q,
		insPos:  pos,
		nparams: sql.MaxParamStmt(up),
		rels:    rels,
	}
	if p, err := plan.Compile(q, rels); err == nil {
		s.plan = p
	} else {
		if !errors.Is(err, plan.ErrNotPlannable) {
			return nil, err
		}
		s.planErr = err
	}
	return s, nil
}

// checkConstExpr verifies a VALUES expression is evaluable without a row
// context: literals, placeholders, and arithmetic over them.
func checkConstExpr(e sql.Expr) error {
	switch x := e.(type) {
	case *sql.Lit, *sql.Param:
		return nil
	case *sql.BinE:
		if err := checkConstExpr(x.L); err != nil {
			return err
		}
		return checkConstExpr(x.R)
	}
	return fmt.Errorf("VALUES expressions must be constants, got %s", e.String())
}

// constEval evaluates a checked VALUES expression against the bound
// placeholder values.
func constEval(e sql.Expr, vals []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case *sql.Lit:
		return x.Val, nil
	case *sql.Param:
		if x.Index < 1 || x.Index > len(vals) {
			return value.Value{}, fmt.Errorf("engine: placeholder $%d out of range", x.Index)
		}
		return vals[x.Index-1], nil
	case *sql.BinE:
		l, err := constEval(x.L, vals)
		if err != nil {
			return value.Value{}, err
		}
		r, err := constEval(x.R, vals)
		if err != nil {
			return value.Value{}, err
		}
		var out value.Value
		ok := false
		switch x.Op {
		case '+':
			out, ok = value.Add(l, r)
		case '-':
			out, ok = value.Sub(l, r)
		case '*':
			out, ok = value.Mul(l, r)
		case '/':
			out, ok = value.Div(l, r)
		}
		if !ok {
			return value.Value{}, fmt.Errorf("engine: cannot evaluate %s %c %s", l, x.Op, r)
		}
		return out, nil
	}
	return value.Value{}, fmt.Errorf("engine: non-constant VALUES expression %s", e.String())
}

func compileARC(db *DB, col *alt.Collection, src string, cat *eval.Catalog, conv convention.Conventions) (*Stmt, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return nil, err
	}
	return &Stmt{
		db:   db,
		lang: LangARC,
		kind: KindQuery,
		src:  src,
		cols: col.Head.Attrs,
		col:  col,
		link: link,
		cat:  cat,
		conv: conv,
	}, nil
}

// compileDatalog lowers a program to ARC once: Datalog is ARC under
// Soufflé conventions, whatever conventions the DB's ARC statements use.
// bound holds the input relations of one execution whose schemas take
// precedence over rels' (see forInputs); nil at Prepare.
func compileDatalog(db *DB, src, pred string, rels, bound map[string]*relation.Relation) (*Stmt, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("engine: empty Datalog program")
	}
	if pred == "" {
		pred = prog.Rules[len(prog.Rules)-1].Head.Pred
	}
	schemas := make(map[string][]string, len(rels)+len(bound))
	for name, r := range rels {
		schemas[name] = r.Attrs()
	}
	for name, r := range bound {
		schemas[name] = r.Attrs()
	}
	cat := eval.NewCatalog().CloneWithBase(rels)
	col, link, err := datalog.Lower(prog, schemas, pred, cat)
	if err != nil {
		return nil, err
	}
	return &Stmt{
		db:   db,
		lang: LangDatalog,
		kind: KindQuery,
		src:  src,
		cols: col.Head.Attrs,
		col:  col,
		link: link,
		cat:  cat,
		conv: convention.Souffle(),
	}, nil
}

// forInputs returns the statement to run with these bindings. Datalog
// atoms are positional but the lowering names attributes, so a binding
// whose attribute names differ from the ones the program was lowered
// against — or whose predicate was unknown then — gets a fresh lowering
// for this execution. ARC statements name their attributes themselves.
func (s *Stmt) forInputs(inputs map[string]*relation.Relation) (*Stmt, error) {
	if s.lang != LangDatalog {
		return s, nil
	}
	for name, rel := range inputs {
		if base := s.cat.Relation(name); base != nil && slices.Equal(base.Attrs(), rel.Attrs()) {
			continue
		}
		rels := map[string]*relation.Relation{}
		for _, r := range s.cat.BaseRelations() {
			rels[r.Name()] = r
		}
		return compileDatalog(s.db, s.src, s.pred(), rels, inputs)
	}
	return s, nil
}

// pred names the predicate a Datalog query returns: the head of the
// collection it lowered to ("" for every other statement).
func (s *Stmt) pred() string {
	if s.lang == LangDatalog && s.col != nil {
		return s.col.Head.Rel
	}
	return ""
}

// Lang returns the statement's language.
func (s *Stmt) Lang() Lang { return s.lang }

// Kind returns the statement's kind: query, DML, DDL, or transaction
// control.
func (s *Stmt) Kind() StmtKind { return s.kind }

// Source returns the prepared source text.
func (s *Stmt) Source() string { return s.src }

// Columns returns the output column names (nil for non-query kinds).
func (s *Stmt) Columns() []string { return s.cols }

// NumParams returns how many positional $n arguments a SQL statement
// binds (always 0 for ARC and Datalog, which bind named relations).
func (s *Stmt) NumParams() int { return s.nparams }

// Explain renders the compiled physical plan of a SQL statement — for
// DELETE and UPDATE, the plan of the synthetic matching-rows query — or
// returns the reason it executes on the reference enumeration path. ARC
// statements render their per-scope plans, and so do Datalog statements:
// the plans of the ARC collections the program lowers to.
func (s *Stmt) Explain() (string, error) {
	switch s.lang {
	case LangSQL:
		if s.plan != nil {
			return s.plan.Explain(), nil
		}
		if s.planErr != nil {
			return "", s.planErr
		}
		return "", fmt.Errorf("engine: no plan for %s statements", s.kind)
	case LangARC, LangDatalog:
		if s.kind != KindQuery {
			return "", fmt.Errorf("engine: no plan rendering for %s statements", s.kind)
		}
		return eval.ExplainCollection(s.col, s.cat, s.conv)
	}
	return "", fmt.Errorf("engine: unknown language %v", s.lang)
}

// current resolves the statement to its freshest compilation: statements
// prepared inside a transaction re-resolve through the per-transaction
// cache whenever the transaction has written since they were compiled,
// so every execution sees the write set's current overlay exactly once.
func (s *Stmt) current() (*Stmt, error) {
	if s.tx == nil {
		return s, nil
	}
	return s.tx.resolve(s)
}

// splitArgs validates and converts execution arguments: SQL statements
// take exactly NumParams positional values; ARC and Datalog queries take
// any number of named Bindings; DML and DDL statements reject Bindings
// with ErrDMLBinding.
func (s *Stmt) splitArgs(args []any) ([]value.Value, map[string]*relation.Relation, error) {
	if s.kind != KindQuery {
		for i, a := range args {
			if b, isBind := a.(Binding); isBind {
				return nil, nil, fmt.Errorf("%w (binding %q, argument %d)", ErrDMLBinding, b.Name, i+1)
			}
		}
	}
	if s.lang == LangSQL {
		vals := make([]value.Value, 0, len(args))
		for i, a := range args {
			if _, isBind := a.(Binding); isBind {
				return nil, nil, fmt.Errorf("engine: SQL statements bind positional $n values, not named relations (argument %d)", i+1)
			}
			v, err := liftArg(a)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: argument %d: %w", i+1, err)
			}
			vals = append(vals, v)
		}
		if len(vals) != s.nparams {
			return nil, nil, fmt.Errorf("engine: statement binds %d parameter(s), got %d argument(s)", s.nparams, len(vals))
		}
		return vals, nil, nil
	}
	if s.kind != KindQuery {
		if len(args) != 0 {
			return nil, nil, fmt.Errorf("engine: %v fact operations take no arguments, got %d", s.lang, len(args))
		}
		return nil, nil, nil
	}
	var inputs map[string]*relation.Relation
	for i, a := range args {
		b, ok := a.(Binding)
		if !ok {
			return nil, nil, fmt.Errorf("engine: %v statements take engine.In(name, relation) bindings, got %T (argument %d)", s.lang, a, i+1)
		}
		if b.Rel == nil {
			return nil, nil, fmt.Errorf("engine: binding %q has a nil relation", b.Name)
		}
		if inputs == nil {
			inputs = map[string]*relation.Relation{}
		}
		inputs[b.Name] = b.Rel
	}
	return nil, inputs, nil
}

// liftArg converts a Go value into a value.Value via relation.LiftErr —
// bind arguments are client-influenced, so unsupported types must come
// back as errors, never as Lift's panic.
func liftArg(a any) (value.Value, error) {
	return relation.LiftErr(a)
}

// errNotRows is the structured misuse error for Query on a non-query
// statement.
func errNotRows(kind StmtKind) error {
	return fmt.Errorf("engine: %s statement does not return rows; use Exec", kind)
}

// Query executes a query statement with the given arguments and returns
// a streaming cursor. For planner-compiled SQL the cursor pulls rows
// directly off the operator tree — nothing is materialized up front —
// and ctx cancellation is polled in the pull loop and in fixpoint
// rounds. ARC, Datalog, and fallback-path SQL evaluate eagerly (their
// evaluators are materializing) and the cursor streams the result.
// Calling Query on a DML, DDL, or transaction-control statement is an
// error.
func (s *Stmt) Query(ctx context.Context, args ...any) (rows *Rows, err error) {
	// Same backstop as Prepare: evaluator panics on hostile bindings
	// become statement errors (streaming pulls are guarded in Rows.Next).
	defer recoverTo(&err, "query")
	if s.kind != KindQuery {
		return nil, errNotRows(s.kind)
	}
	orig := s
	s, err = s.current()
	if err != nil {
		return nil, err
	}
	vals, inputs, err := s.splitArgs(args)
	if err != nil {
		return nil, err
	}
	check := checkFromCtx(ctx)
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}
	s.db.queryExecs.Add(1)
	start := time.Time{}
	if s.db.slow.Load() != nil {
		start = time.Now()
	}
	if s.lang == LangSQL && s.plan != nil {
		seq, errFn := s.plan.Stream(vals, check)
		rows = newRows(s.cols, seq, errFn, check)
	} else {
		rel, err := s.execMaterialized(vals, inputs, check, nil)
		if err != nil {
			return nil, err
		}
		cols := s.cols
		if cols == nil {
			cols = rel.Attrs()
		}
		rows = relationRows(cols, rel, check)
	}
	orig.hookSlowLog(rows, start)
	return rows, nil
}

// hookSlowLog arms a cursor's completion hook for the slow-query log,
// measuring from start (execution begin) to cursor completion. When the
// log is disabled (zero start) this is a no-op, so the untraced query
// path allocates nothing extra.
func (s *Stmt) hookSlowLog(rows *Rows, start time.Time) {
	if start.IsZero() || s.db.slow.Load() == nil {
		return
	}
	rows.onDone = func(n int64) {
		s.db.observeSlow(s.lang, s.kind, s.src, time.Since(start), n, 0, nil)
	}
}

// QueryAll executes the statement and materializes the full result
// relation — the bulk form, byte-identical to the pre-engine evaluator
// entry points.
func (s *Stmt) QueryAll(ctx context.Context, args ...any) (rel *relation.Relation, err error) {
	defer recoverTo(&err, "query")
	if s.kind != KindQuery {
		return nil, errNotRows(s.kind)
	}
	s, err = s.current()
	if err != nil {
		return nil, err
	}
	vals, inputs, err := s.splitArgs(args)
	if err != nil {
		return nil, err
	}
	check := checkFromCtx(ctx)
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}
	s.db.queryExecs.Add(1)
	start := time.Time{}
	if s.db.slow.Load() != nil {
		start = time.Now()
	}
	if s.lang == LangSQL && s.plan != nil {
		rel, err = s.plan.ExecuteWith(vals, check)
	} else {
		rel, err = s.execMaterialized(vals, inputs, check, nil)
	}
	if err == nil && !start.IsZero() {
		s.db.observeSlow(s.lang, s.kind, s.src, time.Since(start), int64(rel.Card()), 0, nil)
	}
	return rel, err
}

// LastTrace returns the operator trace of this handle's most recent
// traced execution (QueryTraced or ExplainAnalyze), or nil when the
// statement has never been traced. The trace is fully populated only
// after the traced cursor has been drained or closed.
func (s *Stmt) LastTrace() *trace.Trace { return s.lastTrace.Load() }

// QueryTraced is Query with operator-level tracing enabled: per-operator
// row counts and timings, hash-join build/probe statistics, and fixpoint
// round history accumulate into the returned trace as the cursor is
// consumed. The trace's totals (Rows, Elapsed) are set when the cursor
// finishes. Untraced executions of the same statement are unaffected —
// tracing state lives in the per-execution trace, never on the plan.
func (s *Stmt) QueryTraced(ctx context.Context, args ...any) (rows *Rows, tr *trace.Trace, err error) {
	defer recoverTo(&err, "query")
	if s.kind != KindQuery {
		return nil, nil, errNotRows(s.kind)
	}
	tr = trace.New()
	s.lastTrace.Store(tr)
	rows, _, err = s.queryTraced(ctx, tr, args)
	if err != nil {
		return nil, nil, err
	}
	return rows, tr, nil
}

// queryTraced runs the traced execution, returning the cursor and the
// resolved (possibly transaction-recompiled) statement.
func (s *Stmt) queryTraced(ctx context.Context, tr *trace.Trace, args []any) (*Rows, *Stmt, error) {
	cur, err := s.current()
	if err != nil {
		return nil, nil, err
	}
	vals, inputs, err := cur.splitArgs(args)
	if err != nil {
		return nil, nil, err
	}
	check := checkFromCtx(ctx)
	if check != nil {
		if err := check(); err != nil {
			return nil, nil, err
		}
	}
	cur.db.queryExecs.Add(1)
	start := time.Now()
	var rows *Rows
	if cur.lang == LangSQL && cur.plan != nil {
		seq, errFn := cur.plan.StreamTraced(vals, check, tr)
		rows = newRows(cur.cols, seq, errFn, check)
	} else {
		rel, err := cur.execMaterialized(vals, inputs, check, func(name string) func(delta int, elapsed time.Duration) {
			return tr.Fixpoint("arc:"+name, name).Observe
		})
		if err != nil {
			return nil, nil, err
		}
		cols := cur.cols
		if cols == nil {
			cols = rel.Attrs()
		}
		rows = relationRows(cols, rel, check)
	}
	db, lang, kind, src := s.db, s.lang, s.kind, s.src
	rows.onDone = func(n int64) {
		tr.Rows = n
		tr.Elapsed = time.Since(start)
		db.observeSlow(lang, kind, src, tr.Elapsed, n, 0, tr)
	}
	return rows, cur, nil
}

// ExplainAnalyze executes the query to completion with tracing enabled
// and renders the executed plan annotated with actual row counts,
// per-operator timings, join build/probe statistics, and — for
// recursive queries — per-round fixpoint delta sizes. SQL statements
// outside the planner fragment return the planner's bailout reason
// (there is no operator tree to annotate).
func (s *Stmt) ExplainAnalyze(ctx context.Context, args ...any) (text string, err error) {
	defer recoverTo(&err, "analyze")
	if s.kind != KindQuery {
		return "", fmt.Errorf("engine: no EXPLAIN ANALYZE for %s statements", s.kind)
	}
	tr := trace.New()
	s.lastTrace.Store(tr)
	rows, cur, err := s.queryTraced(ctx, tr, args)
	if err != nil {
		return "", err
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		return "", err
	}
	return cur.renderAnalyze(tr)
}

// renderAnalyze renders the annotated executed plan for one finished
// traced execution.
func (s *Stmt) renderAnalyze(tr *trace.Trace) (string, error) {
	var b strings.Builder
	switch s.lang {
	case LangSQL:
		if s.plan == nil {
			if s.planErr != nil {
				return "", s.planErr
			}
			return "", fmt.Errorf("engine: no plan for %s statements", s.kind)
		}
		b.WriteString(s.plan.ExplainAnalyze(tr))
	case LangARC, LangDatalog:
		text, err := eval.ExplainCollection(s.col, s.cat, s.conv)
		if err != nil {
			return "", err
		}
		b.WriteString(text)
		if !strings.HasSuffix(text, "\n") {
			b.WriteString("\n")
		}
		tr.EachFixpoint(func(fp *trace.Fixpoint) {
			var total int64
			deltas := make([]string, len(fp.Rounds))
			for i, r := range fp.Rounds {
				deltas[i] = fmt.Sprintf("%d", r.Delta)
				total += r.Nanos
			}
			fmt.Fprintf(&b, "Fixpoint %s: rounds=%d deltas=[%s] time=%s\n",
				fp.Name, len(fp.Rounds), strings.Join(deltas, " "), trace.FormatDuration(total))
		})
	default:
		return "", fmt.Errorf("engine: unknown language %v", s.lang)
	}
	fmt.Fprintf(&b, "Total: rows=%d time=%s\n", tr.Rows, trace.FormatDuration(tr.Elapsed.Nanoseconds()))
	return b.String(), nil
}

// execMaterialized runs the non-streaming paths: fallback SQL on the
// reference enumeration evaluator, and ARC statements — or Datalog ones
// through their lowering — on internal/eval, where obs (when non-nil)
// observes fixpoint rounds.
func (s *Stmt) execMaterialized(vals []value.Value, inputs map[string]*relation.Relation, check func() error, obs eval.RoundObserver) (*relation.Relation, error) {
	if s.lang == LangSQL {
		// The statement fell outside the planner fragment at Prepare:
		// run the reference enumeration path (never re-plan per call).
		return sqleval.EvalWith(s.q, s.rels, sqleval.PlanOff, vals, check)
	}
	s, err := s.forInputs(inputs)
	if err != nil {
		return nil, err
	}
	return eval.EvalPrepared(s.col, s.link, s.cat, s.conv, inputs, check, obs)
}

// evalDMLQuery materializes the embedded query of a DML statement
// (INSERT … SELECT source, DELETE matching rows) with the statement's
// compiled plan or the enumeration fallback.
func (s *Stmt) evalDMLQuery(vals []value.Value, check func() error) (*relation.Relation, error) {
	if s.plan != nil {
		return s.plan.ExecuteWith(vals, check)
	}
	return sqleval.EvalWith(s.q, s.rels, sqleval.PlanOff, vals, check)
}

// sqlColumns computes the output column names of a query on the
// enumeration path: the leftmost SELECT's item names with the reference
// evaluator's duplicate renaming.
func sqlColumns(q sql.Query) []string {
	switch x := q.(type) {
	case *sql.With:
		return sqlColumns(x.Body)
	case *sql.Union:
		return sqlColumns(x.Left)
	case *sql.Select:
		attrs := make([]string, len(x.Items))
		seen := map[string]int{}
		for i, it := range x.Items {
			name := it.OutName(i)
			if n, dup := seen[name]; dup {
				seen[name] = n + 1
				name = fmt.Sprintf("%s_%d", name, n+1)
			} else {
				seen[name] = 1
			}
			attrs[i] = name
		}
		return attrs
	}
	return nil
}

// isFactOps reports whether an ARC/Datalog source is a fact-operation
// batch (assertions/retractions) rather than a query: it starts with
// '+' or '-'.
func isFactOps(src string) bool {
	t := strings.TrimSpace(src)
	return len(t) > 0 && (t[0] == '+' || t[0] == '-')
}
