package plan

import (
	"fmt"

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
// correlation without equality, rep-row grouping, …) return an error
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
	// names shadow database relations.
	ctes map[string]*cteBinding
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
	node, err = c.compileWhere(node, rest, outer)
	if err != nil {
		return nil, err
	}
	fromScope := &scope{schema: node.Schema(), parent: outer}
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
// none applies). Key equality is strict, so consuming a conjunct here is
// exactly the WHERE filter it came from.
func chainJoin(left, right Node, outer *scope, conjs []sql.Expr, consumed []bool) Node {
	n := newHashJoinNode(joinInner, left, right)
	combined := &scope{schema: n.schema, parent: outer}
	nLeft := len(left.Schema())
	for i, cj := range conjs {
		if consumed[i] {
			continue
		}
		lc, rc, ok := splitEqCols(cj, combined, nLeft)
		if !ok {
			continue
		}
		n.leftCols = append(n.leftCols, lc)
		n.rightCols = append(n.rightCols, rc-nLeft)
		n.keyStrs = append(n.keyStrs, cj.(*sql.Cmp).String())
		consumed[i] = true
	}
	return n
}

// splitEqCols matches a conjunct of the form col = col whose sides
// resolve locally on opposite sides of a two-part schema, returning the
// combined-schema positions (left first).
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
	ld, lcol, err := combined.resolve(lRef)
	if err != nil || ld != 0 {
		return 0, 0, false
	}
	rd, rcol, err := combined.resolve(rRef)
	if err != nil || rd != 0 {
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

// compileWhere applies the remaining WHERE conjuncts in order: [NOT]
// EXISTS / [NOT] IN conjuncts decorrelate into semi/anti joins, plain
// predicates become filters. Order is preserved so per-row evaluation
// (and short-circuiting) matches the reference evaluator.
func (c *compilerCtx) compileWhere(node Node, conjs []sql.Expr, outer *scope) (Node, error) {
	var pending []sql.Expr
	flush := func(n Node) (Node, error) {
		if len(pending) == 0 {
			return n, nil
		}
		sc := &scope{schema: n.Schema(), parent: outer}
		preds, err := compilePredsWith(sc, pending)
		if err != nil {
			return nil, err
		}
		str := ""
		for i, p := range pending {
			if i > 0 {
				str += " AND "
			}
			str += p.String()
		}
		pending = nil
		return &filterNode{input: n, pred: andPreds(preds), str: str}, nil
	}
	for _, cj := range conjs {
		if sub, inExpr, negated, ok := asSubqueryConjunct(cj); ok {
			var err error
			node, err = flush(node)
			if err != nil {
				return nil, err
			}
			node, err = c.compileSemi(node, outer, sub, inExpr, negated, cj)
			if err != nil {
				return nil, err
			}
			continue
		}
		pending = append(pending, cj)
	}
	return flush(node)
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

// compileSemi decorrelates one subquery conjunct: the inner SELECT's
// equality-correlated conjuncts become the hash-join key between the
// outer rows and the materialized inner plan; [NOT] IN additionally folds
// three-valued membership of the probe expression over the correlated
// candidates, which reproduces SQL's NULL semantics exactly.
func (c *compilerCtx) compileSemi(input Node, outer *scope, q sql.Query, inExpr sql.Expr, negated bool, orig sql.Expr) (Node, error) {
	inner, ok := q.(*sql.Select)
	if !ok {
		return nil, notPlannable("subquery %T", q)
	}
	if len(inner.GroupBy) > 0 || inner.Having != nil || sql.HasAggregate(inner) {
		return nil, notPlannable("grouped subquery")
	}
	inputScope := &scope{schema: input.Schema(), parent: outer}
	innerConjs := conjuncts(inner.Where)
	innerConsumed := make([]bool, len(innerConjs))
	innerNode, err := c.compileFrom(inner.From, inputScope, innerConjs, innerConsumed)
	if err != nil {
		return nil, err
	}
	innerScope := &scope{schema: innerNode.Schema(), parent: inputScope}

	// Split the inner WHERE into correlation equalities (inner side vs
	// outer side) and residual inner conjuncts.
	var corrInner, corrOuter []sql.Expr
	var residual []sql.Expr
	for i, cj := range innerConjs {
		if innerConsumed[i] {
			continue
		}
		if ie, oe, ok, err := splitCorrEq(cj, innerScope); err != nil {
			return nil, err
		} else if ok {
			corrInner = append(corrInner, ie)
			corrOuter = append(corrOuter, oe)
			continue
		}
		residual = append(residual, cj)
	}
	filtered, err := c.compileWhere(innerNode, residual, inputScope)
	if err != nil {
		return nil, err
	}

	n := &semiJoinNode{input: input, negated: negated}
	// Build the subquery projection: correlation columns, then the IN
	// membership column.
	var subExprs []exprFn
	var subNames []string
	for i, ie := range corrInner {
		fn, err := innerScope.compileScalar(ie)
		if err != nil {
			return nil, err
		}
		subExprs = append(subExprs, fn)
		subNames = append(subNames, fmt.Sprintf("k%d", i))
		n.subCols = append(n.subCols, i)
		ofn, err := inputScope.compileScalar(corrOuter[i])
		if err != nil {
			return nil, err
		}
		n.probes = append(n.probes, ofn)
		n.probeStrs = append(n.probeStrs, fmt.Sprintf("%s = %s", corrOuter[i], ie))
	}
	if inExpr != nil {
		if len(inner.Items) != 1 {
			return nil, notPlannable("IN subquery arity %d", len(inner.Items))
		}
		fn, err := innerScope.compileScalar(inner.Items[0].Expr)
		if err != nil {
			return nil, err
		}
		subExprs = append(subExprs, fn)
		subNames = append(subNames, "v")
		n.inCol = len(n.subCols)
		xfn, err := inputScope.compileScalar(inExpr)
		if err != nil {
			return nil, err
		}
		n.inExpr = xfn
		n.inStr = fmt.Sprintf("%s → %s", inExpr, inner.Items[0].Expr)
	} else {
		// EXISTS ignores the inner items, but they must be error-free
		// per row for the paths to agree; bare literals and column
		// references are.
		for _, it := range inner.Items {
			switch it.Expr.(type) {
			case *sql.Lit:
			case *sql.ColRef:
				if _, err := innerScope.compileScalar(it.Expr); err != nil {
					return nil, err
				}
			default:
				return nil, notPlannable("EXISTS item %T", it.Expr)
			}
		}
	}
	n.sub = &Plan{root: newProjectNode(filtered, subExprs, subNames), attrs: subNames}
	return n, nil
}

// splitCorrEq matches an equality conjunct with one side reading only the
// inner (depth-0) schema and the other only the enclosing (depth-1)
// schema. Sides mixing scopes are not decorrelatable and fail the whole
// compilation (the fragment requires pure equality correlation).
func splitCorrEq(cj sql.Expr, inner *scope) (innerSide, outerSide sql.Expr, ok bool, err error) {
	cmp, isCmp := cj.(*sql.Cmp)
	if !isCmp || cmp.Op != value.Eq {
		// Non-equality conjuncts stay residual; if they are correlated,
		// residual compilation bails out later.
		return nil, nil, false, nil
	}
	lLocal, lOuter, lErr := inner.refsAt(cmp.L)
	rLocal, rOuter, rErr := inner.refsAt(cmp.R)
	if lErr != nil || rErr != nil {
		// Unresolvable or non-scalar sides: leave residual, where the
		// real compile produces the precise bailout.
		return nil, nil, false, nil
	}
	if lLocal && lOuter || rLocal && rOuter {
		return nil, nil, false, notPlannable("mixed-scope correlation %s", cmp)
	}
	switch {
	case lOuter && !rOuter && rLocal:
		return cmp.R, cmp.L, true, nil
	case rOuter && !lOuter && lLocal:
		return cmp.L, cmp.R, true, nil
	}
	return nil, nil, false, nil
}

// compileGrouped lowers GROUP BY / HAVING / aggregate items onto a
// streaming γ. Select items and HAVING must be expressible over the
// post-group schema (group keys matched syntactically, aggregates by
// rendered form); anything needing a representative row falls back.
func (c *compilerCtx) compileGrouped(s *sql.Select, input Node, fromScope *scope, attrs []string) (Node, error) {
	g := &groupNode{input: input, conv: convention.SQL()}
	for _, k := range s.GroupBy {
		fn, err := fromScope.compileScalar(k)
		if err != nil {
			return nil, err
		}
		g.keys = append(g.keys, fn)
		g.keyStrs = append(g.keyStrs, k.String())
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
		arg, err := fromScope.compileScalar(n.Arg)
		if err != nil {
			return err
		}
		spec.arg = arg
	}
	pg.aggIdx[str] = len(pg.node.aggs)
	pg.node.aggs = append(pg.node.aggs, spec)
	return nil
}

// compileScalar compiles an expression over the post-group tuple
// [keys..., agg values...].
func (pg *postGroup) compileScalar(x sql.Expr) (exprFn, error) {
	str := x.String()
	for i, ks := range pg.node.keyStrs {
		if str == ks {
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
