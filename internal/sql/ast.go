// Package sql implements the SQL subset the paper's examples use:
// SELECT [DISTINCT] with joins (inner, LEFT/FULL OUTER, CROSS, JOIN
// LATERAL), subqueries in FROM, WHERE with EXISTS / IN / NOT IN / IS NULL
// and scalar subqueries, GROUP BY / HAVING, aggregate functions, and
// UNION [ALL]. It provides the AST, a lexer, a recursive-descent parser,
// and a printer; evaluation lives in internal/sqleval and translation to
// ARC in internal/sql2arc.
package sql

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Query is a SELECT or a UNION of queries.
type Query interface {
	isQuery()
	// String renders the query as SQL text.
	String() string
}

// With is a query with common table expressions: WITH [RECURSIVE]
// name [(cols)] AS (query), ... body. Each CTE is visible to the CTEs
// after it and to the body; under RECURSIVE a CTE of the form
// "base UNION [ALL] step" whose step references its own name is a
// recursive CTE (see SplitRecursive).
type With struct {
	Recursive bool
	CTEs      []CTE
	Body      Query
}

func (*With) isQuery() {}

// String renders "WITH [RECURSIVE] name [(cols)] AS (q), ... body".
func (w *With) String() string {
	var b strings.Builder
	b.WriteString("WITH ")
	if w.Recursive {
		b.WriteString("RECURSIVE ")
	}
	for i, c := range w.CTEs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if len(c.Cols) > 0 {
			b.WriteString("(" + strings.Join(c.Cols, ", ") + ")")
		}
		b.WriteString(" AS (" + c.Query.String() + ")")
	}
	b.WriteString(" ")
	b.WriteString(w.Body.String())
	return b.String()
}

// CTE is one common table expression of a WITH query.
type CTE struct {
	Name string
	// Cols optionally renames the output columns.
	Cols  []string
	Query Query
}

// SplitRecursive splits a recursive CTE definition into its base and
// step terms. ok is false when the definition never references its own
// name (a plain CTE). A self-referencing definition must be
// "base UNION [ALL] step" with the reference in the step only; anything
// else is an error.
func (c CTE) SplitRecursive() (base, step Query, all, ok bool, err error) {
	if !ReferencesTable(c.Query, c.Name) {
		return nil, nil, false, false, nil
	}
	u, isUnion := c.Query.(*Union)
	if !isUnion {
		return nil, nil, false, false, fmt.Errorf("sql: recursive CTE %q must have the form 'base UNION [ALL] step'", c.Name)
	}
	if ReferencesTable(u.Left, c.Name) {
		return nil, nil, false, false, fmt.Errorf("sql: recursive CTE %q references itself in its non-recursive term", c.Name)
	}
	if !ReferencesTable(u.Right, c.Name) {
		return nil, nil, false, false, fmt.Errorf("sql: recursive CTE %q must reference itself in its recursive (right) term", c.Name)
	}
	return u.Left, u.Right, u.All, true, nil
}

// ReferencesTable reports whether q contains a base-table reference to
// name, anywhere: FROM items and join trees, derived tables, WHERE/ON/
// HAVING and select-item subqueries (EXISTS, IN, scalar), and nested
// WITH queries.
func ReferencesTable(q Query, name string) bool {
	found := false
	var walkQ func(Query)
	var walkRef func(TableRef)
	var walkE func(Expr)
	walkQ = func(q Query) {
		if found || q == nil {
			return
		}
		switch x := q.(type) {
		case *Union:
			walkQ(x.Left)
			walkQ(x.Right)
		case *With:
			for _, c := range x.CTEs {
				walkQ(c.Query)
			}
			walkQ(x.Body)
		case *Select:
			for _, f := range x.From {
				walkRef(f)
			}
			for _, it := range x.Items {
				walkE(it.Expr)
			}
			walkE(x.Where)
			for _, g := range x.GroupBy {
				walkE(g)
			}
			walkE(x.Having)
		}
	}
	walkRef = func(r TableRef) {
		if found {
			return
		}
		switch x := r.(type) {
		case *BaseTable:
			if x.Name == name {
				found = true
			}
		case *SubqueryTable:
			walkQ(x.Query)
		case *JoinRef:
			walkRef(x.Left)
			walkRef(x.Right)
			walkE(x.On)
		}
	}
	walkE = func(e Expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *Cmp:
			walkE(x.L)
			walkE(x.R)
		case *AndE:
			for _, k := range x.Kids {
				walkE(k)
			}
		case *OrE:
			for _, k := range x.Kids {
				walkE(k)
			}
		case *NotE:
			walkE(x.Kid)
		case *IsNullE:
			walkE(x.Arg)
		case *BinE:
			walkE(x.L)
			walkE(x.R)
		case *FuncE:
			walkE(x.Arg)
		case *Exists:
			walkQ(x.Query)
		case *InE:
			walkE(x.Left)
			walkQ(x.Query)
		case *Scalar:
			walkQ(x.Query)
		}
	}
	walkQ(q)
	return found
}

// Union combines two queries; All keeps duplicates.
type Union struct {
	Left, Right Query
	All         bool
}

func (*Union) isQuery() {}

// String renders "left UNION [ALL] right".
func (u *Union) String() string {
	op := " UNION "
	if u.All {
		op = " UNION ALL "
	}
	return u.Left.String() + op + u.Right.String()
}

// Select is a single SELECT block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated FROM items (each may be a join tree)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	// OrderBy is presentation-level ordering over output column names.
	// It is parsed and printed; the paper places sorted lists outside the
	// flat relational core (Section 5), and no executor applies it.
	OrderBy []OrderItem
}

// OrderItem is one ORDER BY key: an output column name and direction.
type OrderItem struct {
	Col  string
	Desc bool
}

// String renders "col [DESC]".
func (o OrderItem) String() string {
	if o.Desc {
		return o.Col + " DESC"
	}
	return o.Col
}

func (*Select) isQuery() {}

// String renders the SELECT block.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	return b.String()
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders "expr [AS alias]".
func (it SelectItem) String() string {
	s := it.Expr.String()
	if it.Alias != "" {
		s += " AS " + it.Alias
	}
	return s
}

// OutName is the output column name: the alias if present, the column
// name for bare column references, else a positional name.
func (it SelectItem) OutName(pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Column
	}
	return "col" + itoa(pos+1)
}

// OutNames computes the block's output column names: each item's OutName,
// a repeated name getting the suffix _2, _3, … in item order.
func (s *Select) OutNames() []string {
	attrs := make([]string, len(s.Items))
	seen := map[string]int{}
	for i, it := range s.Items {
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

// HasAggregate reports whether any select item or HAVING uses an
// aggregate function outside a subquery (triggering implicit grouping
// over the whole input).
func HasAggregate(s *Select) bool {
	found := false
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *FuncE:
			found = true
		case *BinE:
			walk(x.L)
			walk(x.R)
		case *Cmp:
			walk(x.L)
			walk(x.R)
		case *AndE:
			for _, k := range x.Kids {
				walk(k)
			}
		case *OrE:
			for _, k := range x.Kids {
				walk(k)
			}
		case *NotE:
			walk(x.Kid)
		case *IsNullE:
			walk(x.Arg)
		}
	}
	for _, it := range s.Items {
		walk(it.Expr)
	}
	if s.Having != nil {
		walk(s.Having)
	}
	return found
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var d [20]byte
	p := len(d)
	for i > 0 {
		p--
		d[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		d[p] = '-'
	}
	return string(d[p:])
}

// JoinKind enumerates join operators in FROM.
type JoinKind int

const (
	// JoinInner is INNER JOIN / JOIN.
	JoinInner JoinKind = iota
	// JoinLeft is LEFT [OUTER] JOIN.
	JoinLeft
	// JoinFull is FULL [OUTER] JOIN.
	JoinFull
	// JoinCross is CROSS JOIN (or JOIN LATERAL ... ON TRUE).
	JoinCross
)

// String renders the SQL join keyword.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN?"
}

// TableRef is an item in FROM: a base table, a (possibly LATERAL)
// subquery, or a join of two refs.
type TableRef interface {
	isTableRef()
	String() string
}

// BaseTable references a named relation with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) isTableRef() {}

// String renders "name [alias]".
func (t *BaseTable) String() string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// Binding name is the alias if present, else the table name.
func (t *BaseTable) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryTable is a derived table, optionally LATERAL.
type SubqueryTable struct {
	Query   Query
	Alias   string
	Lateral bool
}

func (*SubqueryTable) isTableRef() {}

// String renders "[LATERAL] (q) alias".
func (t *SubqueryTable) String() string {
	s := "(" + t.Query.String() + ")"
	if t.Lateral {
		s = "LATERAL " + s
	}
	if t.Alias != "" {
		s += " " + t.Alias
	}
	return s
}

// JoinRef joins two table refs with an ON condition (nil for CROSS).
type JoinRef struct {
	Kind        JoinKind
	Left, Right TableRef
	On          Expr
}

func (*JoinRef) isTableRef() {}

// String renders "left KIND right ON cond"; a condition-less non-cross
// join prints "ON true" (the lateral-join idiom of Fig 3a).
func (t *JoinRef) String() string {
	s := t.Left.String() + " " + t.Kind.String() + " " + t.Right.String()
	switch {
	case t.On != nil:
		s += " ON " + t.On.String()
	case t.Kind != JoinCross:
		s += " ON true"
	}
	return s
}

// Expr is a scalar or boolean SQL expression.
type Expr interface {
	isExpr()
	String() string
}

// ColRef is table.column (Table may be empty for unqualified columns).
type ColRef struct {
	Table  string
	Column string
}

func (*ColRef) isExpr() {}

// String renders "[table.]column".
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Lit is a literal value.
type Lit struct {
	Val value.Value
}

func (*Lit) isExpr() {}

// String renders the literal.
func (l *Lit) String() string { return l.Val.String() }

// Param is a positional placeholder ($1, $2, …): a value supplied at
// execution time, so a query can be planned once and executed many times
// with different bindings. Indexes are 1-based, database/sql style.
type Param struct {
	Index int
}

func (*Param) isExpr() {}

// String renders "$n".
func (p *Param) String() string { return "$" + itoa(p.Index) }

// MaxParam returns the largest placeholder index used anywhere in q
// (0 when the query has none) — the number of arguments an execution
// must bind.
func MaxParam(q Query) int {
	max := 0
	Walk(q, nil, func(e Expr) {
		if p, ok := e.(*Param); ok && p.Index > max {
			max = p.Index
		}
	}, nil)
	return max
}

// Tables returns the distinct base-table names referenced anywhere in q
// (FROM items, join trees, subqueries, CTE definitions), in first-
// reference order. CTE names shadowing base tables are not subtracted,
// so callers using this for cache invalidation over-approximate.
func Tables(q Query) []string {
	var out []string
	seen := map[string]bool{}
	Walk(q, nil, nil, func(r TableRef) {
		if bt, ok := r.(*BaseTable); ok && !seen[bt.Name] {
			seen[bt.Name] = true
			out = append(out, bt.Name)
		}
	})
	return out
}

// Walk traverses every node of q — query blocks, expressions (descending
// into subqueries), and table references — calling the non-nil callbacks
// on each.
func Walk(q Query, fq func(Query), fe func(Expr), fr func(TableRef)) {
	var walkQ func(Query)
	var walkE func(Expr)
	var walkRef func(TableRef)
	walkE = func(e Expr) {
		if e == nil {
			return
		}
		if fe != nil {
			fe(e)
		}
		switch x := e.(type) {
		case *Cmp:
			walkE(x.L)
			walkE(x.R)
		case *AndE:
			for _, k := range x.Kids {
				walkE(k)
			}
		case *OrE:
			for _, k := range x.Kids {
				walkE(k)
			}
		case *NotE:
			walkE(x.Kid)
		case *IsNullE:
			walkE(x.Arg)
		case *BinE:
			walkE(x.L)
			walkE(x.R)
		case *FuncE:
			walkE(x.Arg)
		case *Exists:
			walkQ(x.Query)
		case *InE:
			walkE(x.Left)
			walkQ(x.Query)
		case *Scalar:
			walkQ(x.Query)
		}
	}
	walkRef = func(r TableRef) {
		if fr != nil {
			fr(r)
		}
		switch x := r.(type) {
		case *SubqueryTable:
			walkQ(x.Query)
		case *JoinRef:
			walkRef(x.Left)
			walkRef(x.Right)
			walkE(x.On)
		}
	}
	walkQ = func(q Query) {
		if q == nil {
			return
		}
		if fq != nil {
			fq(q)
		}
		switch x := q.(type) {
		case *Union:
			walkQ(x.Left)
			walkQ(x.Right)
		case *With:
			for _, c := range x.CTEs {
				walkQ(c.Query)
			}
			walkQ(x.Body)
		case *Select:
			for _, ref := range x.From {
				walkRef(ref)
			}
			for _, it := range x.Items {
				walkE(it.Expr)
			}
			walkE(x.Where)
			for _, g := range x.GroupBy {
				walkE(g)
			}
			walkE(x.Having)
		}
	}
	walkQ(q)
}

// Cmp is a binary comparison.
type Cmp struct {
	Op   value.CmpOp
	L, R Expr
}

func (*Cmp) isExpr() {}

// String renders "l op r".
func (c *Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }

// AndE is conjunction.
type AndE struct{ Kids []Expr }

func (*AndE) isExpr() {}

// String renders "a AND b".
func (a *AndE) String() string { return joinExprs(a.Kids, " AND ") }

// OrE is disjunction.
type OrE struct{ Kids []Expr }

func (*OrE) isExpr() {}

// String renders "(a OR b)".
func (o *OrE) String() string { return "(" + joinExprs(o.Kids, " OR ") + ")" }

// NotE is negation.
type NotE struct{ Kid Expr }

func (*NotE) isExpr() {}

// String renders "NOT (kid)".
func (n *NotE) String() string { return "NOT (" + n.Kid.String() + ")" }

// Exists is [NOT] EXISTS (query).
type Exists struct {
	Query   Query
	Negated bool
}

func (*Exists) isExpr() {}

// String renders "[NOT ]EXISTS (q)".
func (e *Exists) String() string {
	s := "EXISTS (" + e.Query.String() + ")"
	if e.Negated {
		s = "NOT " + s
	}
	return s
}

// InE is "expr [NOT] IN (query)".
type InE struct {
	Left    Expr
	Query   Query
	Negated bool
}

func (*InE) isExpr() {}

// String renders "l [NOT ]IN (q)".
func (e *InE) String() string {
	op := " IN ("
	if e.Negated {
		op = " NOT IN ("
	}
	return e.Left.String() + op + e.Query.String() + ")"
}

// IsNullE is "expr IS [NOT] NULL".
type IsNullE struct {
	Arg     Expr
	Negated bool
}

func (*IsNullE) isExpr() {}

// String renders "arg IS [NOT] NULL".
func (e *IsNullE) String() string {
	if e.Negated {
		return e.Arg.String() + " IS NOT NULL"
	}
	return e.Arg.String() + " IS NULL"
}

// BinE is binary arithmetic (+ - * /).
type BinE struct {
	Op   rune // '+', '-', '*', '/'
	L, R Expr
}

func (*BinE) isExpr() {}

// String renders "(l op r)".
func (b *BinE) String() string {
	return "(" + b.L.String() + " " + string(b.Op) + " " + b.R.String() + ")"
}

// FuncE is an aggregate application: sum/avg/min/max/count, count(*),
// count(DISTINCT e).
type FuncE struct {
	Name     string // lower-cased
	Distinct bool
	Star     bool // count(*)
	Arg      Expr // nil when Star
}

func (*FuncE) isExpr() {}

// String renders "name([DISTINCT] arg)" or "count(*)".
func (f *FuncE) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	inner := ""
	if f.Distinct {
		inner = "DISTINCT "
	}
	return f.Name + "(" + inner + f.Arg.String() + ")"
}

// Scalar is a scalar subquery used as an expression.
type Scalar struct {
	Query Query
}

func (*Scalar) isExpr() {}

// String renders "(q)".
func (s *Scalar) String() string { return "(" + s.Query.String() + ")" }

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}
