package plan

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// Compile lowers a parsed SQL query onto a physical exec-operator plan.
// It reads db for the schema only; the plan runs on any relation map
// with that schema (ExecuteOn, StreamOn), and on db itself by default.
// Queries outside the compiled fragment (LATERAL, scalar subqueries,
// grouped subqueries, rep-row grouping, …) return an error
// wrapping ErrNotPlannable; callers fall back to the reference
// enumeration evaluator, which also owns user-facing errors for
// genuinely invalid queries.
func Compile(q sql.Query, db map[string]*relation.Relation) (*Plan, error) {
	p, err := CompileSchema(q, db)
	if err != nil {
		return nil, err
	}
	p.rels = db
	return p, nil
}

// CompileSchema is Compile without the default map: the plan keeps no
// reference to db (it pins no snapshot) and runs through ExecuteOn and
// StreamOn only.
func CompileSchema(q sql.Query, db map[string]*relation.Relation) (*Plan, error) {
	c := &compilerCtx{db: db}
	p, err := c.compileQuery(q, nil)
	if err != nil {
		return nil, err
	}
	p.nparams = sql.MaxParam(q)
	return p, nil
}

// compilerCtx carries compile-time state shared across query levels.
type compilerCtx struct {
	db map[string]*relation.Relation
	// ctes is the copy-on-write scope of WITH bindings in force; CTE
	// names shadow database relations. stepping: a recursive step's.
	ctes     map[string]*cteBinding
	stepping bool
}

func (c *compilerCtx) compileQuery(q sql.Query, outer *scope) (*Plan, error) {
	switch x := q.(type) {
	case *sql.With:
		return c.compileWith(x, outer)
	case *sql.Union:
		left, err := c.compileQuery(x.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := c.compileQuery(x.Right, outer)
		if err != nil {
			return nil, err
		}
		if len(left.attrs) != len(right.attrs) {
			return nil, notPlannable("UNION arity mismatch")
		}
		var root Node = &unionNode{kids: []Node{left.root, right.root}}
		if !x.All {
			root = &dedupNode{input: root}
		}
		return &Plan{root: root, attrs: left.attrs}, nil
	case *sql.Select:
		return c.compileSelect(x, outer)
	}
	return nil, notPlannable("query node %T", q)
}

// conjuncts flattens the top-level AND spine of an expression.
func conjuncts(x sql.Expr) []sql.Expr {
	if x == nil {
		return nil
	}
	if a, ok := x.(*sql.AndE); ok {
		var out []sql.Expr
		for _, k := range a.Kids {
			out = append(out, conjuncts(k)...)
		}
		return out
	}
	return []sql.Expr{x}
}

func (c *compilerCtx) compileSelect(s *sql.Select, outer *scope) (*Plan, error) {
	conjs := conjuncts(s.Where)
	consumed := make([]bool, len(conjs))
	node, err := c.compileFrom(s.From, outer, conjs, consumed)
	if err != nil {
		return nil, err
	}
	var rest []sql.Expr
	for i, cj := range conjs {
		if !consumed[i] {
			rest = append(rest, cj)
		}
	}
	fromScope := &scope{schema: node.Schema(), parent: outer}
	if node, err = c.compileWhere(node, rest, fromScope); err != nil {
		return nil, err
	}
	attrs := s.OutNames()

	var root Node
	if len(s.GroupBy) > 0 || s.Having != nil || sql.HasAggregate(s) {
		root, err = c.compileGrouped(s, node, fromScope, attrs)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]exprFn, len(s.Items))
		for i, it := range s.Items {
			e, err := fromScope.compileScalar(it.Expr)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
		}
		pn := newProjectNode(node, exprs, attrs)
		// Pure column projections record their source columns, enabling
		// the point-lookup fast path when the input is a direct scan.
		if len(s.Items) > 0 {
			srcCols := make([]int, len(s.Items))
			plain := true
			for i, it := range s.Items {
				ref, ok := it.Expr.(*sql.ColRef)
				if !ok {
					plain = false
					break
				}
				depth, col, err := fromScope.resolve(ref)
				if err != nil || depth != 0 {
					plain = false
					break
				}
				srcCols[i] = col
			}
			if plain {
				pn.srcCols = srcCols
			}
		}
		root = pn
	}
	if s.Distinct {
		root = &dedupNode{input: root}
	}
	return &Plan{root: root, attrs: attrs}, nil
}

// compileFrom lowers the FROM clause: items chain left-deep through hash
// joins keyed on the WHERE equality conjuncts that connect them (marking
// those conjuncts consumed); constant equality conjuncts on top-level
// base tables push down to index probes.
func (c *compilerCtx) compileFrom(refs []sql.TableRef, outer *scope, conjs []sql.Expr, consumed []bool) (Node, error) {
	if len(refs) == 0 {
		return &valuesNode{row: relation.Tuple{}}, nil
	}
	var cur Node
	for i, ref := range refs {
		next, err := c.compileRef(ref, outer, conjs, consumed)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cur = next
			continue
		}
		cur = chainJoin(cur, next, outer, conjs, consumed)
	}
	return cur, nil
}

// chainJoin combines two FROM subtrees with an inner hash join keyed on
// every available column-equality conjunct between them (cross join when
// none applies).
func chainJoin(left, right Node, outer *scope, conjs []sql.Expr, consumed []bool) Node {
	n := newHashJoinNode(joinInner, left, right)
	joinKeys(n, &scope{schema: n.schema, parent: outer}, conjs, consumed)
	return n
}

// joinKeys keys the inner join n on every column-equality conjunct
// between its two sides in rows over sc, consuming them. Key equality is
// strict, so consuming a conjunct here is exactly the WHERE filter it
// came from.
func joinKeys(n *hashJoinNode, sc *scope, conjs []sql.Expr, consumed []bool) {
	nLeft := len(n.left.Schema())
	for i, cj := range conjs {
		if consumed[i] {
			continue
		}
		lc, rc, ok := splitEqCols(cj, sc, nLeft)
		if !ok {
			continue
		}
		n.leftCols = append(n.leftCols, lc)
		n.rightCols = append(n.rightCols, rc-nLeft)
		n.keyStrs = append(n.keyStrs, cj.(*sql.Cmp).String())
		consumed[i] = true
	}
}

// splitEqCols matches a conjunct of the form col = col whose sides
// resolve on opposite sides of rows over combined, the first nLeft
// columns being the left side, returning their positions (left first).
func splitEqCols(cj sql.Expr, combined *scope, nLeft int) (lc, rc int, ok bool) {
	cmp, isCmp := cj.(*sql.Cmp)
	if !isCmp || cmp.Op != value.Eq {
		return 0, 0, false
	}
	lRef, lOK := cmp.L.(*sql.ColRef)
	rRef, rOK := cmp.R.(*sql.ColRef)
	if !lOK || !rOK {
		return 0, 0, false
	}
	lcol, err := combined.column(lRef)
	if err != nil {
		return 0, 0, false
	}
	rcol, err := combined.column(rRef)
	if err != nil {
		return 0, 0, false
	}
	if lcol < nLeft && rcol >= nLeft {
		return lcol, rcol, true
	}
	if rcol < nLeft && lcol >= nLeft {
		return rcol, lcol, true
	}
	return 0, 0, false
}

func (c *compilerCtx) compileRef(ref sql.TableRef, outer *scope, conjs []sql.Expr, consumed []bool) (Node, error) {
	switch x := ref.(type) {
	case *sql.BaseTable:
		if bind := c.withCTE(x.Name); bind != nil {
			return newCTENode(bind, x.Binding()), nil
		}
		rel := c.db[x.Name]
		if rel == nil {
			return nil, notPlannable("unknown table %q", x.Name)
		}
		n := newScanNode(x.Name, rel.Attrs(), x.Binding())
		c.pushProbes(n, conjs, consumed)
		c.pushRange(n, conjs, consumed)
		return n, nil
	case *sql.SubqueryTable:
		if x.Lateral {
			return nil, notPlannable("LATERAL subquery")
		}
		sub, err := c.compileQuery(x.Query, outer)
		if err != nil {
			return nil, err
		}
		return newDerivedNode(sub, x.Alias), nil
	case *sql.JoinRef:
		return c.compileJoinRef(x, outer)
	}
	return nil, notPlannable("table ref %T", ref)
}

// pushProbes turns WHERE conjuncts of the form alias.col = literal (or
// alias.col = $n) into index probes on a top-level base-table scan,
// consuming the conjunct. Probe (Key) identity coincides with Eq for
// every non-NULL value, so the consumed conjunct is exactly the filter it
// replaces. A NULL literal is left as a filter; a parameter bound to NULL
// empties the scan per execution. Probes are never pushed below outer
// joins — compileJoinRef does not call this.
func (c *compilerCtx) pushProbes(n *scanNode, conjs []sql.Expr, consumed []bool) {
	for i, cj := range conjs {
		if consumed[i] {
			continue
		}
		cmp, ok := cj.(*sql.Cmp)
		if !ok || cmp.Op != value.Eq {
			continue
		}
		for _, sides := range [2][2]sql.Expr{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
			ref, ok := sides[0].(*sql.ColRef)
			if !ok || ref.Table != n.alias {
				continue
			}
			col := n.attrIndex(ref.Column)
			if col < 0 {
				continue
			}
			switch other := sides[1].(type) {
			case *sql.Lit:
				if other.Val.IsNull() {
					continue
				}
				n.probes = append(n.probes, scanProbe{col: col, val: other.Val, param: -1})
				n.probeStrs = append(n.probeStrs, fmt.Sprintf("%s=%s", ref.Column, other.Val))
				consumed[i] = true
			case *sql.Param:
				n.probes = append(n.probes, scanProbe{col: col, param: other.Index - 1})
				n.probeStrs = append(n.probeStrs, fmt.Sprintf("%s=%s", ref.Column, other))
				consumed[i] = true
			default:
				continue
			}
			break
		}
	}
}

// flipCmp mirrors an ordering comparison so `lit < col` reads as
// `col > lit`.
func flipCmp(op value.CmpOp) value.CmpOp {
	switch op {
	case value.Lt:
		return value.Gt
	case value.Le:
		return value.Ge
	case value.Gt:
		return value.Lt
	case value.Ge:
		return value.Le
	}
	return op
}

// pushRange turns ordering conjuncts on one column of a top-level
// base-table scan — alias.col < lit, alias.col >= $n, and the two
// conjuncts BETWEEN desugars into — into a bounded range scan over the
// relation's ordered index, consuming the conjuncts. Only scans without
// equality probes take a range (a hash probe already narrows the scan
// more than an ordered slice would); the first ranged column wins, each
// side binds at most once, and everything else stays a filter. The
// ordered probe matches the 3VL Compare contract exactly — NULL column
// values, NULL bounds, and cross-class values match nothing — so a
// consumed conjunct is precisely the filter it replaces, for literal
// and for every possible parameter binding alike.
func (c *compilerCtx) pushRange(n *scanNode, conjs []sql.Expr, consumed []bool) {
	if len(n.probes) > 0 {
		return
	}
	var rng *scanRange
	var colName, loStr, hiStr string
	for i, cj := range conjs {
		if consumed[i] {
			continue
		}
		cmp, ok := cj.(*sql.Cmp)
		if !ok {
			continue
		}
		op := cmp.Op
		var ref *sql.ColRef
		var other sql.Expr
		if l, isRef := cmp.L.(*sql.ColRef); isRef && l.Table == n.alias {
			ref, other = l, cmp.R
		} else if r, isRef := cmp.R.(*sql.ColRef); isRef && r.Table == n.alias {
			ref, other = r, cmp.L
			op = flipCmp(op)
		} else {
			continue
		}
		if op != value.Lt && op != value.Le && op != value.Gt && op != value.Ge {
			continue
		}
		col := n.attrIndex(ref.Column)
		if col < 0 {
			continue
		}
		b := scanBound{set: true, incl: op == value.Le || op == value.Ge, param: -1}
		var bStr string
		switch o := other.(type) {
		case *sql.Lit:
			if o.Val.IsNull() {
				continue // c < NULL is Unknown everywhere; leave the filter
			}
			b.val = o.Val
			bStr = fmt.Sprintf("%s", o.Val)
		case *sql.Param:
			b.param = o.Index - 1
			bStr = o.String()
		default:
			continue
		}
		if rng == nil {
			rng = &scanRange{col: col}
			colName = ref.Column
		} else if rng.col != col {
			continue
		}
		if op == value.Lt || op == value.Le {
			if rng.hi.set {
				continue
			}
			rng.hi, hiStr = b, bStr
		} else {
			if rng.lo.set {
				continue
			}
			rng.lo, loStr = b, bStr
		}
		consumed[i] = true
	}
	if rng == nil {
		return
	}
	n.rng = rng
	open, lo := "(", "-inf"
	if rng.lo.set {
		lo = loStr
		if rng.lo.incl {
			open = "["
		}
	}
	close, hi := ")", "+inf"
	if rng.hi.set {
		hi = hiStr
		if rng.hi.incl {
			close = "]"
		}
	}
	n.rangeStr = fmt.Sprintf("%s in %s%s, %s%s", colName, open, lo, hi, close)
}

// compileJoinRef lowers an explicit join tree. ON column equalities
// between the two sides become hash keys; everything else in ON is the
// residual predicate, evaluated under 3VL on the concatenated tuple —
// together they reproduce the reference onHolds check, with outer-join
// null extension handled by the operator.
func (c *compilerCtx) compileJoinRef(x *sql.JoinRef, outer *scope) (Node, error) {
	left, err := c.compileRef(x.Left, outer, nil, nil)
	if err != nil {
		return nil, err
	}
	right, err := c.compileRef(x.Right, outer, nil, nil)
	if err != nil {
		return nil, err
	}
	var kind joinKind
	switch x.Kind {
	case sql.JoinInner, sql.JoinCross:
		kind = joinInner
	case sql.JoinLeft:
		kind = joinLeft
	case sql.JoinFull:
		kind = joinFull
	default:
		return nil, notPlannable("join kind %v", x.Kind)
	}
	n := newHashJoinNode(kind, left, right)
	combined := &scope{schema: n.schema, parent: outer}
	nLeft := len(left.Schema())
	var residual []sql.Expr
	for _, cj := range conjuncts(x.On) {
		lc, rc, ok := splitEqCols(cj, combined, nLeft)
		if ok {
			n.leftCols = append(n.leftCols, lc)
			n.rightCols = append(n.rightCols, rc-nLeft)
			n.keyStrs = append(n.keyStrs, cj.(*sql.Cmp).String())
			continue
		}
		residual = append(residual, cj)
	}
	if len(residual) > 0 {
		preds, err := compilePredsWith(combined, residual)
		if err != nil {
			return nil, err
		}
		n.residual = andPreds(preds)
		strs := ""
		for i, r := range residual {
			if i > 0 {
				strs += " AND "
			}
			strs += r.String()
		}
		n.residualStr = strs
	}
	return n, nil
}

// compileWhere keeps the rows of node, which sc resolves, on which the
// WHERE conjuncts conjs, then extra, hold: one filter of conditions in
// conjunct order, a [NOT] EXISTS or [NOT] IN conjunct an existence probe
// of the row (compileProbe).
func (c *compilerCtx) compileWhere(node Node, conjs []sql.Expr, sc *scope, extra ...Cond) (Node, error) {
	var conds []Cond
	for _, cj := range conjs {
		var cond Cond
		var err error
		if sub, x, neg, ok := asSubqueryConjunct(cj); ok {
			cond, err = c.compileProbe(node.Schema(), sc, sub, x, neg)
		} else {
			cond.fn, err = compilePredWith(sc, cj)
			cond.str = cj.String()
		}
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond)
	}
	return filterOf(node, append(conds, extra...)), nil
}

// filterOf keeps the rows of node on which conds, folded as the reference
// folds AND, hold.
func filterOf(node Node, conds []Cond) Node {
	if len(conds) == 0 {
		return node
	}
	preds := make([]predFn, len(conds))
	for i, cond := range conds {
		preds[i] = cond.fn
	}
	return newFilter(node, conds, andPreds(preds))
}

// asSubqueryConjunct recognizes [NOT] EXISTS (q) and x [NOT] IN (q)
// conjuncts, including a NOT wrapper, returning the subquery, the IN
// left expression (nil for EXISTS), and the effective negation.
func asSubqueryConjunct(cj sql.Expr) (q sql.Query, inExpr sql.Expr, negated, ok bool) {
	neg := false
	if n, isNot := cj.(*sql.NotE); isNot {
		neg = true
		cj = n.Kid
	}
	switch x := cj.(type) {
	case *sql.Exists:
		return x.Query, nil, x.Negated != neg, true
	case *sql.InE:
		return x.Query, x.Left, x.Negated != neg, true
	}
	return nil, nil, false, false
}

// compileProbe lowers one subquery conjunct of the rows row lays out and
// sc resolves into an existence probe of the row. [NOT] EXISTS is
// two-valued; x [NOT] IN folds x = e over the subquery's item e under
// 3VL, from two scopes: one restricted to x = e, whose row makes it True,
// and one without, whose NULL or incomparable e makes it Unknown.
func (c *compilerCtx) compileProbe(row []ColID, sc *scope, q sql.Query, x sql.Expr, neg bool) (Cond, error) {
	s, ok := q.(*sql.Select)
	switch {
	case !ok:
		return Cond{}, notPlannable("subquery %T", q)
	case len(s.GroupBy) > 0 || s.Having != nil || sql.HasAggregate(s):
		return Cond{}, notPlannable("grouped subquery")
	case x != nil && len(s.Items) != 1:
		return Cond{}, notPlannable("IN subquery arity %d", len(s.Items))
	}
	not := ""
	if neg {
		not = "NOT "
	}
	inner, elem, by, err := c.subscope(row, sc, s, nil, x != nil)
	if err != nil {
		return Cond{}, err
	}
	if x == nil {
		p := newProbe(inner, neg, not+"EXISTS", row, by)
		return Cond{fn: p.holds, str: p.label, probe: p}, nil
	}
	xfn, err := sc.compileScalar(x)
	if err != nil {
		return Cond{}, err
	}
	match, _, mby, err := c.subscope(row, sc, s, x, true)
	if err != nil {
		return Cond{}, err
	}
	e := s.Items[0].Expr
	p := newProbe(match, neg, fmt.Sprintf("%sIN (%s → %s)", not, x, e), row, mby)
	p.x, p.rest = xfn, newProbe(inner, false, e.String(), row, by)
	p.rest.elem = elem
	return Cond{fn: p.holds, str: p.label, probe: p}, nil
}

// newProbe is the existence test of inner, whose answer is a function of
// the columns by of the tested row, which row lays out.
func newProbe(inner Node, neg bool, label string, row []ColID, by []int) *probe {
	slices.Sort(by)
	p := &probe{inner: inner, neg: neg, label: label, keyed: true, by: by}
	for _, c := range by {
		p.byStr = append(p.byStr, row[c].String())
	}
	return p
}

// subscope lowers the subquery s of the rows row lays out and sc resolves
// into a probe's inner scope, restricted to x = e unless x is nil, and
// compiles its item e. Its rows are its FROM's, unless a reference leaves
// it: then its first leaf is the tested row (Outer), joined to the FROM
// on the equalities between a side that reads the tested row alone and
// one that reads the FROM alone (and x = e when e reads the FROM alone).
// Every other conjunct is a condition: below the join if it reads the
// FROM alone.
func (c *compilerCtx) subscope(row []ColID, sc *scope, s *sql.Select, x sql.Expr, in bool) (Node, exprFn, []int, error) {
	_, linked := x.(*sql.ColRef) // a column x reads the tested row
	n, e, by, err := c.lowerSubscope(row, sc, s, x, in, linked)
	if errors.Is(err, errCorrelated) && !linked {
		return c.lowerSubscope(row, sc, s, x, in, true)
	}
	return n, e, by, err
}

// joinKey is one key of a subscope's join: l over the tested row, under
// the scope ls, equals r over the FROM's rows.
type joinKey struct {
	l, r sql.Expr
	ls   *scope
	str  string
}

// lowerSubscope is subscope with the tested row (linked) or without, and
// also returns the columns of the tested row the scope reads.
func (c *compilerCtx) lowerSubscope(row []ColID, sc *scope, s *sql.Select, x sql.Expr, in, linked bool) (Node, exprFn, []int, error) {
	conjs := conjuncts(s.Where)
	consumed := make([]bool, len(conjs))
	from, err := c.compileFrom(s.From, sc, conjs, consumed)
	if err != nil {
		return nil, nil, nil, err
	}
	var by []int
	inner := &scope{schema: from.Schema(), parent: sc, linked: linked, used: &by}
	// x reads the tested row only: the prefix of the inner rows.
	xs := &scope{parent: sc, linked: linked, used: &by}
	var e sql.Expr
	if x != nil {
		e = s.Items[0].Expr
	}
	keyed, chain := false, from
	if linked {
		local := &scope{schema: from.Schema(), parent: sc}
		var conds []Cond
		var keys []joinKey
		for i, cj := range conjs {
			if _, _, _, sub := asSubqueryConjunct(cj); consumed[i] || sub {
				continue
			}
			if pred, err := compilePredWith(local, cj); err == nil {
				conds, consumed[i] = append(conds, Cond{fn: pred, str: cj.String()}), true
			} else if l, r, ok := inner.splitKey(cj); ok {
				keys, consumed[i] = append(keys, joinKey{l, r, inner, cj.String()}), true
			}
		}
		if x != nil {
			if loc, out, ok := inner.reads(e); ok && loc && !out {
				keys, keyed = append(keys, joinKey{x, e, xs, fmt.Sprintf("%s = %s", x, e)}), true
			}
		}
		if chain, err = joinOn(Outer(row), filterOf(from, conds), local, keys); err != nil {
			return nil, nil, nil, err
		}
		inner.off = len(chain.(*hashJoinNode).left.Schema())
	}
	var member []Cond
	if x != nil && !keyed {
		xf, err := xs.compileScalar(x)
		if err != nil {
			return nil, nil, nil, err
		}
		ef, err := inner.compileScalar(e)
		if err != nil {
			return nil, nil, nil, err
		}
		member = append(member, Cond{fn: func(t relation.Tuple, ctx *runCtx) value.TV {
			return value.Eq.Apply(xf(t, ctx), ef(t, ctx))
		}, str: fmt.Sprintf("%s = %s", x, e)})
	}
	var where []sql.Expr
	for i, cj := range conjs {
		if !consumed[i] {
			where = append(where, cj)
		}
	}
	if chain, err = c.compileWhere(chain, where, inner, member...); err != nil {
		return nil, nil, nil, err
	}
	// IN reads its item off the rows; EXISTS ignores the items, but they
	// must be error-free per row for the paths to agree, as bare literals
	// and column references are.
	var elem exprFn
	for _, it := range s.Items {
		switch it.Expr.(type) {
		case *sql.Lit, *sql.ColRef:
		default:
			if !in {
				return nil, nil, nil, notPlannable("EXISTS item %T", it.Expr)
			}
		}
		if elem, err = inner.compileScalar(it.Expr); err != nil {
			return nil, nil, nil, err
		}
	}
	return chain, elem, by, nil
}

// splitKey matches an equality conjunct of the rows over s between a side
// that reads the enclosing rows alone and one that reads s's own columns
// alone, returning them in that order.
func (s *scope) splitKey(cj sql.Expr) (outer, local sql.Expr, ok bool) {
	cmp, isCmp := cj.(*sql.Cmp)
	if !isCmp || cmp.Op != value.Eq {
		return nil, nil, false
	}
	lLoc, lOut, lok := s.reads(cmp.L)
	rLoc, rOut, rok := s.reads(cmp.R)
	switch {
	case !lok || !rok:
		return nil, nil, false
	case lOut && !lLoc && rLoc && !rOut:
		return cmp.L, cmp.R, true
	case rOut && !rLoc && lLoc && !lOut:
		return cmp.R, cmp.L, true
	}
	return nil, nil, false
}

// reads reports whether x, a scalar over the rows of s, reads s's own
// columns (local) and enclosing ones (outer); ok is false for an
// expression outside the scalar fragment or a reference s cannot resolve.
func (s *scope) reads(x sql.Expr) (local, outer, ok bool) {
	switch n := x.(type) {
	case *sql.Lit, *sql.Param:
		return false, false, true
	case *sql.ColRef:
		depth, _, err := s.resolve(n)
		return depth == 0, depth > 0, err == nil
	case *sql.BinE:
		l1, o1, ok1 := s.reads(n.L)
		l2, o2, ok2 := s.reads(n.R)
		return l1 || l2, o1 || o2, ok1 && ok2
	}
	return false, false, false
}

// joinOn joins the tested row (left) to the FROM's rows (right, which
// local resolves) on keys (keyJoin).
func joinOn(left, right Node, local *scope, keys []joinKey) (*hashJoinNode, error) {
	jks := make([]JoinKey, len(keys))
	for i, k := range keys {
		l, err := k.ls.keyExpr(k.l)
		if err != nil {
			return nil, err
		}
		r, err := local.keyExpr(k.r)
		if err != nil {
			return nil, err
		}
		jks[i] = JoinKey{L: l, R: r, Str: k.str}
	}
	return keyJoin(joinInner, left, right, jks), nil
}

// keyExpr compiles a join key side, a grouping key or an aggregate
// argument over the rows of s: the column it reads, which its operator
// may read in place, or the value it computes.
func (s *scope) keyExpr(x sql.Expr) (Expr, error) {
	if ref, ok := x.(*sql.ColRef); ok {
		c, err := s.column(ref)
		return Column(c, x.String()), err
	}
	fn, err := s.compileScalar(x)
	return Expr{fn: fn, str: x.String()}, err
}

// compileGrouped lowers GROUP BY / HAVING / aggregate items onto a
// streaming γ. Select items and HAVING must be expressible over the
// post-group schema (group keys matched syntactically, aggregates by
// rendered form); anything needing a representative row falls back.
func (c *compilerCtx) compileGrouped(s *sql.Select, input Node, fromScope *scope, attrs []string) (Node, error) {
	g := &groupNode{input: input, conv: convention.SQL()}
	for _, k := range s.GroupBy {
		x, err := fromScope.keyExpr(k)
		if err != nil {
			return nil, err
		}
		g.keys = append(g.keys, x)
	}
	pg := &postGroup{node: g}
	for _, it := range s.Items {
		if err := pg.collectAggs(it.Expr, fromScope); err != nil {
			return nil, err
		}
	}
	if s.Having != nil {
		if err := pg.collectAggs(s.Having, fromScope); err != nil {
			return nil, err
		}
	}
	g.layout()
	var root Node = g
	if s.Having != nil {
		pred, err := compilePredWith(pg, s.Having)
		if err != nil {
			return nil, err
		}
		root = &filterNode{input: root, pred: pred, str: s.Having.String()}
	}
	exprs := make([]exprFn, len(s.Items))
	for i, it := range s.Items {
		fn, err := pg.compileScalar(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = fn
	}
	return newProjectNode(root, exprs, attrs), nil
}

// postGroup compiles expressions over a groupNode's output schema:
// grouping keys are matched by rendered form, aggregate applications by
// their rendered call.
type postGroup struct {
	node   *groupNode
	aggIdx map[string]int
}

// collectAggs registers every aggregate call in x as a γ column,
// deduplicating by rendered form.
func (pg *postGroup) collectAggs(x sql.Expr, fromScope *scope) error {
	switch n := x.(type) {
	case *sql.FuncE:
		return pg.addAgg(n, fromScope)
	case *sql.BinE:
		if err := pg.collectAggs(n.L, fromScope); err != nil {
			return err
		}
		return pg.collectAggs(n.R, fromScope)
	case *sql.Cmp:
		if err := pg.collectAggs(n.L, fromScope); err != nil {
			return err
		}
		return pg.collectAggs(n.R, fromScope)
	case *sql.AndE:
		for _, k := range n.Kids {
			if err := pg.collectAggs(k, fromScope); err != nil {
				return err
			}
		}
	case *sql.OrE:
		for _, k := range n.Kids {
			if err := pg.collectAggs(k, fromScope); err != nil {
				return err
			}
		}
	case *sql.NotE:
		return pg.collectAggs(n.Kid, fromScope)
	case *sql.IsNullE:
		return pg.collectAggs(n.Arg, fromScope)
	}
	return nil
}

func (pg *postGroup) addAgg(n *sql.FuncE, fromScope *scope) error {
	if pg.aggIdx == nil {
		pg.aggIdx = map[string]int{}
	}
	str := n.String()
	if _, ok := pg.aggIdx[str]; ok {
		return nil
	}
	spec := aggSpec{name: n.Name, str: str}
	switch {
	case n.Star:
		if n.Name != "count" {
			return notPlannable("%s(*)", n.Name)
		}
		spec.fn = exec.Count
	case n.Distinct:
		if n.Name != "count" {
			return notPlannable("%s(DISTINCT)", n.Name)
		}
		spec.fn = exec.CountDistinct
	default:
		switch n.Name {
		case "count":
			spec.fn = exec.CountCol
		case "countdistinct":
			spec.fn = exec.CountDistinct
		case "sum":
			spec.fn = exec.Sum
			spec.numeric = true
		case "avg":
			spec.fn = exec.Avg
			spec.numeric = true
		case "min":
			spec.fn = exec.Min
		case "max":
			spec.fn = exec.Max
		default:
			return notPlannable("aggregate %q", n.Name)
		}
	}
	if !n.Star {
		arg, err := fromScope.keyExpr(n.Arg)
		if err != nil {
			return err
		}
		spec.arg, spec.col = arg.fn, arg.col
	}
	pg.aggIdx[str] = len(pg.node.aggs)
	pg.node.aggs = append(pg.node.aggs, spec)
	return nil
}

// compileScalar compiles an expression over the post-group tuple
// [keys..., agg values...].
func (pg *postGroup) compileScalar(x sql.Expr) (exprFn, error) {
	str := x.String()
	for i, k := range pg.node.keys {
		if str == k.str {
			col := i
			return func(t relation.Tuple, _ *runCtx) value.Value { return t[col] }, nil
		}
	}
	switch n := x.(type) {
	case *sql.FuncE:
		if i, ok := pg.aggIdx[str]; ok {
			col := len(pg.node.keys) + i
			return func(t relation.Tuple, _ *runCtx) value.Value { return t[col] }, nil
		}
		return nil, notPlannable("unregistered aggregate %s", str)
	case *sql.Lit:
		v := n.Val
		return func(relation.Tuple, *runCtx) value.Value { return v }, nil
	case *sql.Param:
		i := n.Index - 1
		return func(_ relation.Tuple, ctx *runCtx) value.Value { return ctx.param(i) }, nil
	case *sql.BinE:
		l, err := pg.compileScalar(n.L)
		if err != nil {
			return nil, err
		}
		r, err := pg.compileScalar(n.R)
		if err != nil {
			return nil, err
		}
		return compileArith(n, l, r)
	}
	return nil, notPlannable("%s needs a representative row", str)
}
