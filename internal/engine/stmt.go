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
// the planner fragment) compiled at Prepare — against a schema, not
// against data. Every execution loads one relation map at its start (the
// committed head, or the open transaction's overlay for a statement
// prepared from a Tx or a Session) and runs the compiled form on it, so a
// statement sees the data current when it is executed: a cursor keeps
// streaming the map its execution began on, a transaction keeps reading
// its base snapshot plus its own writes. The compiled form is replaced
// only when the schema it was compiled against no longer matches that
// map (see on). A Stmt is safe for concurrent use.
type Stmt struct {
	db   *DB
	lang Lang
	src  string
	pred string                 // Datalog: the predicate asked for ("" = the last rule's head)
	conv convention.Conventions // ARC conventions in force at Prepare
	// scope is the Tx or Session the statement was prepared from and runs
	// in; nil for one prepared from the DB (head snapshot, autocommit).
	scope txScope
	cur   atomic.Pointer[compiled]

	// lastTrace holds the trace of the most recent traced execution
	// through this handle (QueryTraced / ExplainAnalyze), for callers
	// that drain a cursor first and inspect the statistics after.
	lastTrace atomic.Pointer[trace.Trace]
}

// txScope is what a statement not prepared from the DB runs in: openTx
// yields the transaction whose overlay it reads and whose write set it
// writes, or nil for the committed head with autocommit.
type txScope interface {
	openTx() (*Tx, error)
}

// compiled is the immutable compiled form of a statement, valid for
// every relation map in which the relations it names have the attribute
// lists it recorded in deps.
type compiled struct {
	kind    StmtKind
	cols    []string
	nparams int
	deps    []relDep

	// SQL query machinery — also the embedded query of INSERT … SELECT
	// and the synthetic full-row SELECT of DELETE and UPDATE.
	q       sql.Query
	plan    *plan.Plan // nil → the reference enumeration evaluator
	planErr error      // the planner's bailout reason, for Explain

	// SQL DML/DDL
	st     sql.Statement // *sql.Insert, *sql.Delete, *sql.Update, *sql.CreateTable, *sql.DropTable
	insPos []int         // INSERT/UPDATE: target column of each written value

	// ARC / Datalog fact ops
	ops []factOp

	// ARC, and Datalog lowered to ARC (the target predicate's collection;
	// the program's other predicates are views of its catalog), analyzed
	// and lowered at Prepare: an execution binds relations and runs it.
	prep *eval.Prepared
}

// relDep records what a compilation saw of one relation it names: its
// attribute list, or that it did not exist.
type relDep struct {
	name    string
	attrs   []string
	present bool
}

// dependOn records the schema of the named relations in rels.
func (c *compiled) dependOn(rels map[string]*relation.Relation, names ...string) {
	for _, name := range names {
		r, ok := rels[name]
		d := relDep{name: name, present: ok}
		if ok {
			d.attrs = r.Attrs()
		}
		c.deps = append(c.deps, d)
	}
}

// fresh reports whether rels has the schema c was compiled against —
// the one freshness check of the execution path.
func (c *compiled) fresh(rels map[string]*relation.Relation) bool {
	for _, d := range c.deps {
		r, ok := rels[d.name]
		if ok != d.present || ok && !slices.Equal(r.Attrs(), d.attrs) {
			return false
		}
	}
	return true
}

// on returns the compiled form for an execution over rels. When a
// relation the statement names was created, dropped or re-registered
// with other attributes since it was compiled, it is recompiled — once,
// through the statement cache — or fails with the error Prepare gives.
func (s *Stmt) on(rels map[string]*relation.Relation) (*compiled, error) {
	c := s.cur.Load()
	if c.fresh(rels) {
		return c, nil
	}
	_, c, err := s.db.prepareOn(rels, s.lang, s.conv, s.src, s.pred)
	if err != nil {
		return nil, err
	}
	s.cur.Store(c)
	return c, nil
}

// compileStmt compiles one statement in the given language against the
// schema of rels.
func compileStmt(lang Lang, src, pred string, rels map[string]*relation.Relation, cat *eval.Catalog, conv convention.Conventions) (*compiled, error) {
	switch lang {
	case LangSQL:
		return compileSQL(src, rels)
	case LangARC, LangDatalog:
		if isFactOps(src) {
			return compileFactOps(src, rels)
		}
		if lang == LangDatalog {
			return compileDatalog(src, pred, rels, nil)
		}
		col, err := arc.ParseCollection(src)
		if err != nil {
			return nil, err
		}
		return compileARC(col, cat, conv, rels)
	}
	return nil, fmt.Errorf("engine: unknown language %v", lang)
}

func compileSQL(src string, rels map[string]*relation.Relation) (*compiled, error) {
	st, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	switch x := st.(type) {
	case sql.Query:
		c := &compiled{kind: KindQuery, nparams: sql.MaxParam(x)}
		if err := c.compileQuery(x, rels); err != nil {
			return nil, err
		}
		c.cols = c.queryCols()
		return c, nil
	case *sql.Insert:
		return compileInsert(x, rels)
	case *sql.Delete:
		return compileDelete(x, rels)
	case *sql.Update:
		return compileUpdate(x, rels)
	case *sql.CreateTable:
		seen := map[string]bool{}
		for _, c := range x.Cols {
			if seen[c] {
				return nil, fmt.Errorf("engine: CREATE TABLE %s: duplicate column %q", x.Name, c)
			}
			seen[c] = true
		}
		return &compiled{kind: KindDDL, st: x}, nil
	case *sql.DropTable:
		if _, ok := rels[x.Name]; !ok {
			return nil, fmt.Errorf("engine: DROP TABLE %s: unknown relation", x.Name)
		}
		c := &compiled{kind: KindDDL, st: x}
		c.dependOn(rels, x.Name)
		return c, nil
	case *sql.BeginStmt:
		return &compiled{kind: KindBegin}, nil
	case *sql.CommitStmt:
		return &compiled{kind: KindCommit}, nil
	case *sql.RollbackStmt:
		return &compiled{kind: KindRollback}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// compileQuery makes q the statement's (embedded) query: compiled by the
// planner, or — outside the planner fragment — kept for the reference
// enumeration evaluator along with the bailout reason. It is the one
// place that decides between the two; runQuery is the one that acts on
// it.
func (c *compiled) compileQuery(q sql.Query, rels map[string]*relation.Relation) error {
	c.q = q
	c.dependOn(rels, sql.Tables(q)...)
	p, err := plan.CompileSchema(q, rels)
	switch {
	case err == nil:
		c.plan = p
	case errors.Is(err, plan.ErrNotPlannable):
		c.planErr = err
	default:
		return err
	}
	return nil
}

// queryCols names the output columns of the (embedded) query.
func (c *compiled) queryCols() []string {
	if c.plan != nil {
		return c.plan.Attrs()
	}
	return sqlColumns(c.q)
}

// runQuery materializes the (embedded) query on rels: the compiled plan
// if there is one, the reference enumeration evaluator otherwise (never
// a re-plan per call).
func (c *compiled) runQuery(rels map[string]*relation.Relation, vals []value.Value, check func() error) (*relation.Relation, error) {
	if c.plan != nil {
		return c.plan.ExecuteOn(rels, vals, check)
	}
	return sqleval.EvalWith(c.q, rels, vals, check)
}

// compileInsert validates an INSERT against the target relation and, for
// the INSERT … SELECT form, compiles the source query. VALUES rows must
// be constant expressions over literals, $n placeholders, and
// arithmetic; their width (and the source query's) must match the
// written column list.
func compileInsert(ins *sql.Insert, rels map[string]*relation.Relation) (*compiled, error) {
	target, ok := rels[ins.Table]
	if !ok {
		return nil, fmt.Errorf("engine: INSERT into unknown relation %q", ins.Table)
	}
	c := &compiled{kind: KindDML, st: ins, nparams: sql.MaxParamStmt(ins)}
	c.dependOn(rels, ins.Table)
	width := target.Arity()
	if len(ins.Cols) > 0 {
		width = len(ins.Cols)
		c.insPos = make([]int, width)
		seen := map[string]bool{}
		for i, col := range ins.Cols {
			pos := target.AttrIndex(col)
			if pos < 0 {
				return nil, fmt.Errorf("engine: INSERT into %s: unknown column %q", ins.Table, col)
			}
			if seen[col] {
				return nil, fmt.Errorf("engine: INSERT into %s: column %q written twice", ins.Table, col)
			}
			seen[col] = true
			c.insPos[i] = pos
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
		return c, nil
	}
	if err := c.compileQuery(ins.Query, rels); err != nil {
		return nil, err
	}
	if got := len(c.queryCols()); got != width {
		return nil, fmt.Errorf("engine: INSERT into %s: query yields %d column(s), want %d", ins.Table, got, width)
	}
	return c, nil
}

// matchingRows is the synthetic SELECT a DELETE or UPDATE finds its rows
// with: the target's full row, then one item per SET expression, under
// the statement's WHERE — so row matching (and new-value computation)
// runs through the planner like any query, range and probe pushdown
// included.
func matchingRows(target *relation.Relation, alias, binding string, set []sql.Expr, where sql.Expr) *sql.Select {
	items := make([]sql.SelectItem, 0, target.Arity()+len(set))
	for _, a := range target.Attrs() {
		items = append(items, sql.SelectItem{Expr: &sql.ColRef{Table: binding, Column: a}, Alias: a})
	}
	for i, e := range set {
		items = append(items, sql.SelectItem{Expr: e, Alias: fmt.Sprintf("set_%d", i)})
	}
	return &sql.Select{
		Items: items,
		From:  []sql.TableRef{&sql.BaseTable{Name: target.Name(), Alias: alias}},
		Where: where,
	}
}

// compileDelete lowers DELETE FROM t [alias] WHERE cond into its
// matching-rows query, executed at Exec time to enumerate the tuples to
// remove.
func compileDelete(del *sql.Delete, rels map[string]*relation.Relation) (*compiled, error) {
	target, ok := rels[del.Table]
	if !ok {
		return nil, fmt.Errorf("engine: DELETE from unknown relation %q", del.Table)
	}
	c := &compiled{kind: KindDML, st: del, nparams: sql.MaxParamStmt(del)}
	return c, c.compileQuery(matchingRows(target, del.Alias, del.Binding(), nil, del.Where), rels)
}

// compileUpdate lowers UPDATE t SET … WHERE … into its matching-rows
// query, each matched row followed by its SET values. Exec removes each
// matched tuple's occurrences and re-inserts the rewritten tuples.
func compileUpdate(up *sql.Update, rels map[string]*relation.Relation) (*compiled, error) {
	target, ok := rels[up.Table]
	if !ok {
		return nil, fmt.Errorf("engine: UPDATE unknown relation %q", up.Table)
	}
	pos := make([]int, len(up.Cols))
	seen := map[string]bool{}
	for i, col := range up.Cols {
		p := target.AttrIndex(col)
		if p < 0 {
			return nil, fmt.Errorf("engine: UPDATE %s: unknown column %q", up.Table, col)
		}
		if seen[col] {
			return nil, fmt.Errorf("engine: UPDATE %s: column %q set twice", up.Table, col)
		}
		seen[col] = true
		pos[i] = p
	}
	c := &compiled{kind: KindDML, st: up, insPos: pos, nparams: sql.MaxParamStmt(up)}
	return c, c.compileQuery(matchingRows(target, up.Alias, up.Binding(), up.Exprs, up.Where), rels)
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

// compileARC validates a collection and lowers it against the schema of
// rels. The lowering reads the column order of every relation it
// resolves, so each is a dependency.
func compileARC(col *alt.Collection, cat *eval.Catalog, conv convention.Conventions, rels map[string]*relation.Relation) (*compiled, error) {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return nil, err
	}
	c := &compiled{kind: KindQuery, cols: col.Head.Attrs, prep: eval.Prepare(col, link, cat, conv, rels, nil)}
	c.dependOn(rels, c.prep.Relations()...)
	return c, nil
}

// compileDatalog lowers a program to ARC, and that onto internal/plan,
// once: Datalog is ARC under Soufflé conventions, whatever conventions
// the DB's ARC statements use. bound holds the input relations of one
// execution whose schemas take precedence over rels' (see forInputs); nil
// at Prepare.
func compileDatalog(src, pred string, rels, bound map[string]*relation.Relation) (*compiled, error) {
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
	cat := eval.NewCatalog()
	col, link, err := datalog.Lower(prog, schemas, pred, cat)
	if err != nil {
		return nil, err
	}
	c := &compiled{kind: KindQuery, cols: col.Head.Attrs, prep: eval.Prepare(col, link, cat, convention.Souffle(), rels, bound)}
	c.dependOn(rels, prog.Predicates()...)
	return c, nil
}

// forInputs returns the compiled form to run with these bindings. The
// held plans read columns by their offsets in the relations they were
// lowered against, so a binding whose attribute list differs from that
// relation's — in names or only in order — or whose relation did not
// exist then gets a fresh lowering for this execution: an ARC
// collection's, or a Datalog program's (whose atoms are positional, but
// its lowering names attributes).
func (s *Stmt) forInputs(c *compiled, rels, inputs map[string]*relation.Relation) (*compiled, error) {
	for name, rel := range inputs {
		if base := rels[name]; base != nil && slices.Equal(base.Attrs(), rel.Attrs()) {
			continue
		}
		if s.lang == LangDatalog {
			return compileDatalog(s.src, s.pred, rels, inputs)
		}
		return &compiled{kind: c.kind, cols: c.cols, prep: c.prep.With(rels, inputs)}, nil
	}
	return c, nil
}

// Lang returns the statement's language.
func (s *Stmt) Lang() Lang { return s.lang }

// Kind returns the statement's kind: query, DML, DDL, or transaction
// control.
func (s *Stmt) Kind() StmtKind { return s.cur.Load().kind }

// Source returns the prepared source text.
func (s *Stmt) Source() string { return s.src }

// Columns returns the output column names (nil for non-query kinds).
func (s *Stmt) Columns() []string { return s.cur.Load().cols }

// NumParams returns how many positional $n arguments a SQL statement
// binds (always 0 for ARC and Datalog, which bind named relations).
func (s *Stmt) NumParams() int { return s.cur.Load().nparams }

// Explain renders the compiled physical plan of a SQL statement — for
// DELETE and UPDATE, the plan of the synthetic matching-rows query — or
// returns the reason it executes on the reference enumeration path. ARC
// statements render the per-scope plans they hold for the schema an
// execution would read now, and so do Datalog statements: the plans of
// the ARC collections the program lowers to.
func (s *Stmt) Explain() (text string, err error) {
	defer recoverTo(&err, "explain")
	rels, err := s.db.relsIn(s.scope)
	if err != nil {
		return "", err
	}
	c, err := s.on(rels)
	if err != nil {
		return "", err
	}
	switch {
	case c.plan != nil:
		return c.plan.Explain(), nil
	case c.planErr != nil:
		return "", c.planErr
	case c.prep != nil:
		return c.prep.Explain(nil)
	}
	return "", fmt.Errorf("engine: no plan for %s statements", c.kind)
}

// splitArgs validates and converts execution arguments: SQL statements
// take exactly NumParams positional values; ARC and Datalog queries take
// any number of named Bindings; DML and DDL statements reject Bindings
// with ErrDMLBinding.
func (s *Stmt) splitArgs(c *compiled, args []any) ([]value.Value, map[string]*relation.Relation, error) {
	if c.kind != KindQuery {
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
		if len(vals) != c.nparams {
			return nil, nil, fmt.Errorf("engine: statement binds %d parameter(s), got %d argument(s)", c.nparams, len(vals))
		}
		return vals, nil, nil
	}
	if c.kind != KindQuery {
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

// execution is one run of a query statement: the relation map loaded at
// its start (and the transaction it belongs to, if any), the compiled
// form valid for that map, the bound arguments, and the cancellation
// poll.
type execution struct {
	rels   map[string]*relation.Relation
	tx     *Tx
	c      *compiled
	vals   []value.Value
	inputs map[string]*relation.Relation
	check  func() error
}

// begin is the prologue every query execution shares (Query, QueryAll,
// QueryTraced, ExplainAnalyze): it refuses non-queries, loads the
// relation map, checks the compiled form against it, binds the
// arguments, and polls cancellation once before any work.
func (s *Stmt) begin(ctx context.Context, args []any) (x execution, err error) {
	if k := s.Kind(); k != KindQuery {
		return x, errNotRows(k)
	}
	if x.tx, err = openTx(s.scope); err != nil {
		return x, err
	}
	x.rels = s.db.rels(x.tx)
	if x.c, err = s.on(x.rels); err != nil {
		return x, err
	}
	if x.vals, x.inputs, err = s.splitArgs(x.c, args); err != nil {
		return x, err
	}
	if x.check = checkFromCtx(ctx); x.check != nil {
		if err = x.check(); err != nil {
			return x, err
		}
	}
	if x.c, err = s.forInputs(x.c, x.rels, x.inputs); err != nil {
		return x, err
	}
	s.db.queryExecs.Add(1)
	return x, nil
}

// materialize computes the whole result. Planner-compiled SQL runs its
// plan, fallback SQL the reference enumeration evaluator; ARC statements
// — and Datalog ones through their lowering — run their prepared plans on
// internal/eval, where a non-nil tr observes operators and fixpoint
// rounds.
func (x *execution) materialize(tr *trace.Trace) (*relation.Relation, error) {
	c := x.c
	if c.prep == nil {
		return c.runQuery(x.rels, x.vals, x.check)
	}
	return c.prep.Eval(x.rels, x.inputs, x.check, tr)
}

// rows opens the cursor. For planner-compiled SQL it pulls rows directly
// off the operator tree, and for ARC and Datalog off the evaluator's head
// tuples (eval.Prepared.Stream): nothing is materialized up front, and an
// evaluation error arrives at Next. A recursive collection is computed to
// its fixpoint first, and fallback-path SQL evaluates eagerly (the
// reference evaluator is materializing); the cursor streams the result.
// A non-nil tr traces the execution.
func (x *execution) rows(tr *trace.Trace) (*Rows, error) {
	if p := x.c.plan; p != nil {
		seq, errFn := p.StreamOn(x.rels, x.vals, x.check, tr)
		return newRows(x.c.cols, seq, errFn, x.check), nil
	}
	if c := x.c; c.prep != nil {
		if x.tx != nil {
			// The evaluator reads the relations while the cursor is
			// drained, and later statements of the transaction write its
			// working copies in place: the cursor holds them as they are.
			x.rels = x.tx.ws.Held()
		}
		seq, errFn, err := c.prep.Stream(x.rels, x.inputs, x.check, tr)
		if err != nil {
			return nil, err
		}
		return newRows(c.cols, seq, errFn, x.check), nil
	}
	rel, err := x.materialize(tr)
	if err != nil {
		return nil, err
	}
	cols := x.c.cols
	if cols == nil {
		cols = rel.Attrs()
	}
	return relationRows(cols, rel, x.check), nil
}

// slowStart is the start time of an execution the slow-query log will
// see, zero while the log is disabled (the untraced path then reads no
// clock).
func (db *DB) slowStart() time.Time {
	if db.slow.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// Query executes a query statement with the given arguments, on the data
// current now, and returns a streaming cursor over it (see
// execution.rows for what streams and what is evaluated first). ctx
// cancellation is polled in the pull loop and in fixpoint rounds.
// Calling Query on a DML, DDL, or transaction-control statement is an
// error.
func (s *Stmt) Query(ctx context.Context, args ...any) (rows *Rows, err error) {
	// Same backstop as Prepare: evaluator panics on hostile bindings
	// become statement errors (streaming pulls are guarded in Rows.Next).
	defer recoverTo(&err, "query")
	x, err := s.begin(ctx, args)
	if err != nil {
		return nil, err
	}
	start := s.db.slowStart()
	if rows, err = x.rows(nil); err != nil {
		return nil, err
	}
	// The slow-query log measures from execution begin to cursor
	// completion.
	if !start.IsZero() {
		rows.onDone = func(n int64) {
			s.db.observeSlow(s.lang, KindQuery, s.src, time.Since(start), n, 0, nil)
		}
	}
	return rows, nil
}

// QueryAll executes the statement and materializes the full result
// relation — the bulk form, byte-identical to the pre-engine evaluator
// entry points.
func (s *Stmt) QueryAll(ctx context.Context, args ...any) (rel *relation.Relation, err error) {
	defer recoverTo(&err, "query")
	x, err := s.begin(ctx, args)
	if err != nil {
		return nil, err
	}
	start := s.db.slowStart()
	rel, err = x.materialize(nil)
	if err == nil && !start.IsZero() {
		s.db.observeSlow(s.lang, KindQuery, s.src, time.Since(start), int64(rel.Card()), 0, nil)
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
	rows, tr, _, err = s.queryTraced(ctx, args)
	return rows, tr, err
}

// queryTraced runs the traced execution, returning the cursor, its
// trace, and the execution (for renderAnalyze).
func (s *Stmt) queryTraced(ctx context.Context, args []any) (*Rows, *trace.Trace, execution, error) {
	x, err := s.begin(ctx, args)
	if err != nil {
		return nil, nil, x, err
	}
	tr := trace.New()
	s.lastTrace.Store(tr)
	start := time.Now()
	rows, err := x.rows(tr)
	if err != nil {
		return nil, nil, x, err
	}
	rows.onDone = func(n int64) {
		tr.Rows = n
		tr.Elapsed = time.Since(start)
		s.db.observeSlow(s.lang, KindQuery, s.src, tr.Elapsed, n, 0, tr)
	}
	return rows, tr, x, nil
}

// ExplainAnalyze executes the query to completion with tracing enabled
// and renders the executed plan annotated with actual row counts,
// per-operator timings, join build/probe statistics, and — for
// recursive queries — per-round fixpoint delta sizes. SQL statements
// outside the planner fragment have no operator tree to annotate: they
// render the reference evaluator's single step with the planner's
// bailout reason.
func (s *Stmt) ExplainAnalyze(ctx context.Context, args ...any) (text string, err error) {
	defer recoverTo(&err, "analyze")
	if k := s.Kind(); k != KindQuery {
		return "", fmt.Errorf("engine: no EXPLAIN ANALYZE for %s statements", k)
	}
	rows, tr, x, err := s.queryTraced(ctx, args)
	if err != nil {
		return "", err
	}
	rows.Each(func([]value.Value) bool { return true })
	if err := rows.Close(); err != nil {
		return "", err
	}
	return x.renderAnalyze(tr)
}

// renderAnalyze renders the annotated executed plan of the finished
// traced execution.
func (x *execution) renderAnalyze(tr *trace.Trace) (string, error) {
	var b strings.Builder
	switch c := x.c; {
	case c.plan != nil:
		b.WriteString(c.plan.ExplainAnalyze(tr))
	case c.planErr != nil:
		fmt.Fprintf(&b, "Enumeration (reference evaluator): %v\n", c.planErr)
	default:
		text, err := c.prep.Explain(tr)
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
	}
	fmt.Fprintf(&b, "Total: rows=%d time=%s\n", tr.Rows, trace.FormatDuration(tr.Elapsed.Nanoseconds()))
	return b.String(), nil
}

// sqlColumns computes the output column names of a query on the
// enumeration path: those of its leftmost SELECT.
func sqlColumns(q sql.Query) []string {
	switch x := q.(type) {
	case *sql.With:
		return sqlColumns(x.Body)
	case *sql.Union:
		return sqlColumns(x.Left)
	case *sql.Select:
		return x.OutNames()
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
