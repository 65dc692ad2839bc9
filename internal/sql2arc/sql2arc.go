// Package sql2arc translates the SQL subset of internal/sql into ARC
// Abstract Language Trees, applying the paper's canonical encodings:
//
//   - scalar subqueries become lateral bindings (Section 2.12, Fig 13d);
//   - NOT IN becomes NOT EXISTS with explicit null checks (Section 2.10,
//     query (17));
//   - GROUP BY / HAVING / implicit aggregation become grouping scopes with
//     aggregate assignment and comparison predicates (Section 2.5);
//   - DISTINCT becomes deduplication via grouping on all head attributes
//     (Section 2.7);
//   - LEFT/FULL OUTER JOIN becomes a join annotation; ON conditions that
//     reference only the non-nullable side against a constant are encoded
//     with constant join leaves, the device of Section 2.11 / Fig 12;
//   - UNION becomes disjunction (Section 2.8).
package sql2arc

import (
	"fmt"

	"repro/internal/alt"
	"repro/internal/sql"
)

// Translate converts a SQL query into a strict ARC collection named "Q".
func Translate(q sql.Query) (*alt.Collection, error) {
	return TranslateNamed(q, "Q")
}

// TranslateNamed converts a SQL query into an ARC collection with the
// given head relation name.
func TranslateNamed(q sql.Query, name string) (*alt.Collection, error) {
	tr := &translator{}
	col, err := tr.query(q, name)
	if err != nil {
		return nil, err
	}
	if _, err := alt.ValidateCollection(col); err != nil {
		return nil, fmt.Errorf("sql2arc produced an invalid ALT: %w", err)
	}
	return col, nil
}

// TranslateString parses and translates a SQL string.
func TranslateString(src string) (*alt.Collection, error) {
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return Translate(q)
}

type translator struct {
	fresh int
}

func (tr *translator) gensym(prefix string) string {
	tr.fresh++
	return fmt.Sprintf("%s%d", prefix, tr.fresh)
}

func (tr *translator) query(q sql.Query, name string) (*alt.Collection, error) {
	switch x := q.(type) {
	case *sql.Select:
		return tr.selectQuery(x, name)
	case *sql.Union:
		return tr.union(x, name)
	}
	return nil, fmt.Errorf("sql2arc: unknown query node %T", q)
}

// union translates UNION [ALL] into disjunction; plain UNION adds a
// deduplication wrapper (grouping on all head attributes).
func (tr *translator) union(u *sql.Union, name string) (*alt.Collection, error) {
	flat, all := flattenUnion(u)
	var branches []alt.Formula
	var attrs []string
	for i, s := range flat {
		inner := tr.gensym("u")
		col, err := tr.selectQuery(s, name)
		if err != nil {
			return nil, err
		}
		_ = inner
		if i == 0 {
			attrs = col.Head.Attrs
		} else if len(col.Head.Attrs) != len(attrs) {
			return nil, fmt.Errorf("sql2arc: UNION arity mismatch")
		} else {
			// Rename later branches' head attributes to the first's.
			col = renameHead(col, attrs)
		}
		branches = append(branches, col.Body)
	}
	col := alt.Col(name, attrs, alt.OrF(branches...))
	if !all {
		return tr.dedupWrap(col), nil
	}
	return col, nil
}

func flattenUnion(q sql.Query) ([]*sql.Select, bool) {
	switch x := q.(type) {
	case *sql.Select:
		return []*sql.Select{x}, true
	case *sql.Union:
		l, _ := flattenUnion(x.Left)
		r, _ := flattenUnion(x.Right)
		return append(l, r...), x.All
	}
	return nil, true
}

// renameHead rewrites a collection's head attribute names (and the head
// references in assignment predicates) to the given names.
func renameHead(col *alt.Collection, attrs []string) *alt.Collection {
	old := col.Head.Attrs
	ren := map[string]string{}
	for i, a := range old {
		ren[a] = attrs[i]
	}
	alt.Walk(col.Body, func(f alt.Formula) {
		p, ok := f.(*alt.Pred)
		if !ok {
			return
		}
		for _, side := range []alt.Term{p.Left, p.Right} {
			if r, ok := side.(*alt.AttrRef); ok && r.Var == col.Head.Rel {
				if n, ok := ren[r.Attr]; ok {
					r.Attr = n
				}
			}
		}
	})
	col.Head.Attrs = attrs
	return col
}

// dedupWrap wraps a collection with γ over all head attributes — the
// paper's DISTINCT encoding (Section 2.7).
func (tr *translator) dedupWrap(inner *alt.Collection) *alt.Collection {
	name := inner.Head.Rel
	innerName := name + "_all"
	inner.Head.Rel = innerName
	alt.Walk(inner.Body, func(f alt.Formula) {
		p, ok := f.(*alt.Pred)
		if !ok {
			return
		}
		for _, side := range []alt.Term{p.Left, p.Right} {
			if r, ok := side.(*alt.AttrRef); ok && r.Var == name {
				r.Var = innerName
			}
		}
	})
	v := tr.gensym("d")
	keys := make([]*alt.AttrRef, len(inner.Head.Attrs))
	var asg []alt.Formula
	for i, a := range inner.Head.Attrs {
		keys[i] = alt.Ref(v, a)
		asg = append(asg, alt.Eq(alt.Ref(name, a), alt.Ref(v, a)))
	}
	return alt.Col(name, inner.Head.Attrs,
		alt.ExistsG([]*alt.Binding{alt.BindSub(v, inner)}, keys, alt.AndF(asg...)))
}

// scopeParts is the working state for one SELECT scope being translated.
type scopeParts struct {
	bindings []*alt.Binding
	join     alt.JoinExpr
	conjs    []alt.Formula
}

// selectQuery translates one SELECT block into a collection. ORDER BY is
// dropped: the paper places sorted lists outside the flat relational
// core (Section 5), so ordering does not affect the relational pattern,
// and no executor in this repository applies it.
func (tr *translator) selectQuery(s *sql.Select, name string) (*alt.Collection, error) {
	sp := &scopeParts{}
	for _, ref := range s.From {
		if err := tr.tableRef(ref, sp); err != nil {
			return nil, err
		}
	}
	if s.Where != nil {
		f, err := tr.boolExpr(s.Where, sp)
		if err != nil {
			return nil, err
		}
		sp.conjs = append(sp.conjs, f)
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil || selectHasAggregate(s)
	var attrs []string
	var headAsg []alt.Formula
	for i, it := range s.Items {
		attrs = append(attrs, it.OutName(i))
	}
	for i, it := range s.Items {
		t, err := tr.scalarExpr(it.Expr, sp)
		if err != nil {
			return nil, err
		}
		headAsg = append(headAsg, alt.Eq(alt.Ref(name, attrs[i]), t))
	}

	var body alt.Formula
	if len(sp.bindings) == 0 {
		if grouped {
			return nil, fmt.Errorf("sql2arc: aggregates without FROM are not supported")
		}
		body = alt.AndF(append(sp.conjs, headAsg...)...)
	} else if grouped {
		var keys []*alt.AttrRef
		for _, g := range s.GroupBy {
			cr, ok := g.(*sql.ColRef)
			if !ok || cr.Table == "" {
				return nil, fmt.Errorf("sql2arc: GROUP BY supports qualified column references only, got %s", g)
			}
			keys = append(keys, alt.Ref(cr.Table, cr.Column))
		}
		conjs := append([]alt.Formula{}, sp.conjs...)
		if s.Having != nil {
			h, err := tr.boolExpr(s.Having, sp)
			if err != nil {
				return nil, err
			}
			conjs = append(conjs, h)
		}
		conjs = append(conjs, headAsg...)
		q := alt.ExistsG(sp.bindings, keys, alt.AndF(conjs...))
		q.Join = sp.join
		body = q
	} else {
		q := alt.Exists(sp.bindings, alt.AndF(append(sp.conjs, headAsg...)...))
		q.Join = sp.join
		body = q
	}
	col := alt.Col(name, attrs, body)
	if s.Distinct {
		col = tr.dedupWrap(col)
	}
	return col, nil
}

func selectHasAggregate(s *sql.Select) bool {
	found := false
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.FuncE:
			found = true
		case *sql.BinE:
			walk(x.L)
			walk(x.R)
		case *sql.Cmp:
			walk(x.L)
			walk(x.R)
		}
	}
	for _, it := range s.Items {
		walk(it.Expr)
	}
	return found
}

// tableRef translates a FROM item into bindings, a join annotation, and
// condition conjuncts.
func (tr *translator) tableRef(ref sql.TableRef, sp *scopeParts) error {
	leaf, err := tr.joinTree(ref, sp)
	if err != nil {
		return err
	}
	switch {
	case sp.join == nil && isPlainLeafOrInner(leaf):
		// No annotation needed for plain inner content.
	case sp.join == nil:
		sp.join = leaf
	default:
		sp.join = alt.Inner(sp.join, leaf)
	}
	return nil
}

func isPlainLeafOrInner(j alt.JoinExpr) bool {
	switch x := j.(type) {
	case *alt.JoinVar:
		return true
	case *alt.JoinOp:
		if x.Kind != alt.JoinInner {
			return false
		}
		for _, k := range x.Kids {
			if !isPlainLeafOrInner(k) {
				return false
			}
		}
		return true
	}
	return false
}

// joinTree translates a table ref into a join-annotation expression,
// registering bindings and ON conditions along the way.
func (tr *translator) joinTree(ref sql.TableRef, sp *scopeParts) (alt.JoinExpr, error) {
	switch x := ref.(type) {
	case *sql.BaseTable:
		v := x.Binding()
		sp.bindings = append(sp.bindings, alt.Bind(v, x.Name))
		return alt.JV(v), nil
	case *sql.SubqueryTable:
		sub, err := tr.query(x.Query, strings_Title(x.Alias))
		if err != nil {
			return nil, err
		}
		sp.bindings = append(sp.bindings, alt.BindSub(x.Alias, sub))
		return alt.JV(x.Alias), nil
	case *sql.JoinRef:
		l, err := tr.joinTree(x.Left, sp)
		if err != nil {
			return nil, err
		}
		r, err := tr.joinTree(x.Right, sp)
		if err != nil {
			return nil, err
		}
		switch x.Kind {
		case sql.JoinInner, sql.JoinCross:
			if x.On != nil {
				f, err := tr.boolExpr(x.On, sp)
				if err != nil {
					return nil, err
				}
				sp.conjs = append(sp.conjs, f)
			}
			return alt.Inner(l, r), nil
		case sql.JoinLeft, sql.JoinFull:
			nullable, err := tr.outerJoinConds(x, l, &r, sp)
			if err != nil {
				return nil, err
			}
			_ = nullable
			if x.Kind == sql.JoinLeft {
				return alt.LeftJ(l, r), nil
			}
			return alt.FullJ(l, r), nil
		}
	}
	return nil, fmt.Errorf("sql2arc: unknown table ref %T", ref)
}

// outerJoinConds translates the ON condition of a left/full join. Each
// conjunct must reference the nullable side so the evaluator's routing
// attaches it to the join node; conjuncts comparing the non-nullable side
// with a constant are encoded via a constant join leaf, the paper's
// device in Fig 12 / query (18). r is updated in place when constant
// leaves are added.
func (tr *translator) outerJoinConds(x *sql.JoinRef, l alt.JoinExpr, r *alt.JoinExpr, sp *scopeParts) (alt.JoinExpr, error) {
	if x.On == nil {
		return *r, nil
	}
	conjs := flattenAnd(x.On)
	rightVars := map[string]bool{}
	for _, v := range alt.JoinVars(*r, nil) {
		rightVars[v] = true
	}
	for _, c := range conjs {
		if refsAny(c, rightVars) {
			f, err := tr.boolExpr(c, sp)
			if err != nil {
				return nil, err
			}
			sp.conjs = append(sp.conjs, f)
			continue
		}
		// Left-side-only conjunct: must be expr-vs-constant; encode with a
		// constant join leaf on the nullable side.
		cmp, ok := c.(*sql.Cmp)
		if !ok {
			return nil, fmt.Errorf("sql2arc: unsupported ON condition %s (does not reference the nullable side)", c)
		}
		var colSide, litSide sql.Expr = cmp.L, cmp.R
		lit, isLit := litSide.(*sql.Lit)
		op := cmp.Op
		if !isLit {
			colSide, litSide = cmp.R, cmp.L
			lit, isLit = litSide.(*sql.Lit)
			op = op.Flip()
		}
		if !isLit {
			return nil, fmt.Errorf("sql2arc: unsupported non-constant ON condition %s on the non-nullable side", c)
		}
		cv := tr.gensym("c")
		jc := alt.JC(lit.Val, cv)
		*r = alt.Inner(jc, *r)
		t, err := tr.scalarExpr(colSide, sp)
		if err != nil {
			return nil, err
		}
		sp.conjs = append(sp.conjs, &alt.Pred{Left: t, Op: op, Right: alt.Ref(cv, "val")})
	}
	return *r, nil
}

func flattenAnd(e sql.Expr) []sql.Expr {
	if a, ok := e.(*sql.AndE); ok {
		var out []sql.Expr
		for _, k := range a.Kids {
			out = append(out, flattenAnd(k)...)
		}
		return out
	}
	return []sql.Expr{e}
}

// refsAny reports whether e references any of the given table aliases.
func refsAny(e sql.Expr, vars map[string]bool) bool {
	found := false
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColRef:
			if vars[x.Table] {
				found = true
			}
		case *sql.BinE:
			walk(x.L)
			walk(x.R)
		case *sql.Cmp:
			walk(x.L)
			walk(x.R)
		case *sql.AndE:
			for _, k := range x.Kids {
				walk(k)
			}
		case *sql.OrE:
			for _, k := range x.Kids {
				walk(k)
			}
		case *sql.NotE:
			walk(x.Kid)
		case *sql.IsNullE:
			walk(x.Arg)
		}
	}
	walk(e)
	return found
}

// strings_Title capitalizes the first rune for derived head names.
func strings_Title(s string) string {
	if s == "" {
		return "X"
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}
