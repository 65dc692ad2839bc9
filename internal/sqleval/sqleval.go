// Package sqleval is the reference evaluator for the SQL subset in
// internal/sql, with standard SQL semantics: bag multiplicities,
// three-valued logic over NULL, SQL NOT IN behaviour, correlated
// subqueries (scalar, EXISTS, IN, LATERAL), outer joins, GROUP BY /
// HAVING, and UNION [ALL]. It evaluates by enumeration only and is the
// baseline that the SQL planner and every ARC translation must agree
// with — it imports neither internal/plan nor internal/eval, so it never
// runs the code it verifies (TestImportsNothingItVerifies).
package sqleval

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// DB maps relation names to instances.
type DB map[string]*relation.Relation

// NewDB builds a DB from relations.
func NewDB(rels ...*relation.Relation) DB {
	db := DB{}
	for _, r := range rels {
		db[r.Name()] = r
	}
	return db
}

// Eval evaluates a parsed query against db.
func Eval(q sql.Query, db DB) (*relation.Relation, error) {
	return EvalWith(q, db, nil, nil)
}

// EvalWith evaluates a parsed query with $n parameter bindings and an
// optional cancellation check, polled between query blocks and recursive
// rounds. It is the engine layer's entry point for queries outside the
// planner fragment.
func EvalWith(q sql.Query, db DB, params []value.Value, check func() error) (*relation.Relation, error) {
	e := &evaluator{db: db, params: params, check: check}
	return e.evalQuery(q, nil)
}

// EvalString parses and evaluates a SQL string.
func EvalString(src string, db DB) (*relation.Relation, error) {
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(q, db)
}

type evaluator struct {
	db     DB
	params []value.Value // $n bindings (1-based indexes into this slice + 1)
	check  func() error  // optional cancellation poll
}

// child creates an evaluator over a different database view that shares
// the parameter bindings and cancellation check.
func (e *evaluator) child(db DB) *evaluator {
	return &evaluator{db: db, params: e.params, check: e.check}
}

// poll surfaces a pending cancellation as an evaluation error.
func (e *evaluator) poll() error {
	if e.check == nil {
		return nil
	}
	return e.check()
}

// frame is one correlation level: the aliases visible in a (sub)query.
type frame struct {
	parent *frame
	vals   map[string]map[string]value.Value
}

func (f *frame) lookup(table, col string) (value.Value, bool, error) {
	for cur := f; cur != nil; cur = cur.parent {
		if table != "" {
			if cols, ok := cur.vals[table]; ok {
				v, ok := cols[col]
				if !ok {
					return value.Null(), false, fmt.Errorf("table %q has no column %q", table, col)
				}
				return v, true, nil
			}
			continue
		}
		// Unqualified: the column must be unambiguous within this frame.
		var found value.Value
		hits := 0
		for _, cols := range cur.vals {
			if v, ok := cols[col]; ok {
				found = v
				hits++
			}
		}
		if hits > 1 {
			return value.Null(), false, fmt.Errorf("ambiguous column %q", col)
		}
		if hits == 1 {
			return found, true, nil
		}
	}
	return value.Null(), false, nil
}

// row is one intermediate tuple of a FROM clause with its bag weight.
type row struct {
	vals   map[string]map[string]value.Value
	weight int
}

func (r row) extend(alias string, cols map[string]value.Value, w int) row {
	nv := make(map[string]map[string]value.Value, len(r.vals)+1)
	for k, v := range r.vals {
		nv[k] = v
	}
	nv[alias] = cols
	return row{vals: nv, weight: r.weight * w}
}

// MaxRecursiveIterations bounds the reference evaluator's WITH RECURSIVE
// working-table loop: a UNION ALL step over a cyclic instance keeps
// producing rows forever, and the cap turns that into a clear error. A
// variable so guard tests can tighten it.
var MaxRecursiveIterations = 100000

// evalWith evaluates a WITH query: each CTE materializes (in order, so
// later CTEs and the body see earlier ones) into a child scope's
// database; recursive CTEs run the SQL working-table loop.
func (e *evaluator) evalWith(w *sql.With, outer *frame) (*relation.Relation, error) {
	child := e.child(make(DB, len(e.db)+len(w.CTEs)))
	for k, v := range e.db {
		child.db[k] = v
	}
	for _, cte := range w.CTEs {
		if w.Recursive {
			base, step, all, ok, err := cte.SplitRecursive()
			if err != nil {
				return nil, err
			}
			if ok {
				// evalRecursiveCTE validates the declared columns and
				// returns the final name and attribute list.
				rel, err := child.evalRecursiveCTE(cte, base, step, all, outer)
				if err != nil {
					return nil, err
				}
				child.db[cte.Name] = rel
				continue
			}
		}
		rel, err := child.evalQuery(cte.Query, outer)
		if err != nil {
			return nil, err
		}
		attrs := rel.Attrs()
		if len(cte.Cols) > 0 {
			if len(cte.Cols) != len(attrs) {
				return nil, fmt.Errorf("CTE %q declares %d columns, its query returns %d", cte.Name, len(cte.Cols), len(attrs))
			}
			attrs = cte.Cols
		}
		child.db[cte.Name] = rel.Rename(cte.Name, attrs)
	}
	return child.evalQuery(w.Body, outer)
}

// evalRecursiveCTE is the reference iteration for one recursive CTE,
// with the SQL-standard working-table semantics: the result and working
// table start as the base term's output; each round re-evaluates the
// step with the CTE name bound to the working table only, and the new
// rows (for UNION: deduplicated and not already in the result) become
// the next working table. It shares no code with the planner's fixpoint
// engine — it is the baseline the differential suite compares against.
func (e *evaluator) evalRecursiveCTE(cte sql.CTE, baseQ, stepQ sql.Query, all bool, outer *frame) (*relation.Relation, error) {
	base, err := e.evalQuery(baseQ, outer)
	if err != nil {
		return nil, err
	}
	attrs := base.Attrs()
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(attrs) {
			return nil, fmt.Errorf("CTE %q declares %d columns, its query returns %d", cte.Name, len(cte.Cols), len(attrs))
		}
		attrs = cte.Cols
	}
	distinct := !all
	result := relation.New(cte.Name, attrs...)
	work := relation.New(cte.Name, attrs...)
	base.Each(func(t relation.Tuple, m int) {
		if distinct {
			if !work.Contains(t) {
				work.Insert(t)
			}
			return
		}
		work.InsertMult(t, m)
	})
	work.Each(func(t relation.Tuple, m int) { result.InsertMult(t, m) })
	stepEv := e.child(make(DB, len(e.db)+1))
	for k, v := range e.db {
		stepEv.db[k] = v
	}
	for iter := 0; work.Distinct() > 0; iter++ {
		if err := e.poll(); err != nil {
			return nil, err
		}
		if iter >= MaxRecursiveIterations {
			hint := "UNION ALL recursion needs a bounded step"
			if distinct {
				hint = "the step keeps deriving new rows over a growing domain"
			}
			return nil, fmt.Errorf("recursive CTE %q did not converge within %d iterations (%s)", cte.Name, MaxRecursiveIterations, hint)
		}
		stepEv.db[cte.Name] = work
		out, err := stepEv.evalQuery(stepQ, outer)
		if err != nil {
			return nil, err
		}
		if out.Arity() != len(attrs) {
			return nil, fmt.Errorf("recursive CTE %q: step arity %d, want %d", cte.Name, out.Arity(), len(attrs))
		}
		next := relation.New(cte.Name, attrs...)
		out.Each(func(t relation.Tuple, m int) {
			if distinct {
				if result.Contains(t) || next.Contains(t) {
					return
				}
				next.Insert(t)
				return
			}
			next.InsertMult(t, m)
		})
		next.Each(func(t relation.Tuple, m int) { result.InsertMult(t, m) })
		work = next
	}
	return result, nil
}

func (e *evaluator) evalQuery(q sql.Query, outer *frame) (*relation.Relation, error) {
	if err := e.poll(); err != nil {
		return nil, err
	}
	switch x := q.(type) {
	case *sql.With:
		return e.evalWith(x, outer)
	case *sql.Union:
		l, err := e.evalQuery(x.Left, outer)
		if err != nil {
			return nil, err
		}
		r, err := e.evalQuery(x.Right, outer)
		if err != nil {
			return nil, err
		}
		if l.Arity() != r.Arity() {
			return nil, fmt.Errorf("UNION arity mismatch: %d vs %d", l.Arity(), r.Arity())
		}
		out := l.Clone()
		r.Each(func(t relation.Tuple, m int) { out.InsertMult(t, m) })
		if !x.All {
			out = out.Dedup()
		}
		return out, nil
	case *sql.Select:
		return e.evalSelect(x, outer)
	}
	return nil, fmt.Errorf("unknown query node %T", q)
}

func (e *evaluator) evalSelect(s *sql.Select, outer *frame) (*relation.Relation, error) {
	// Top-level equality conjuncts of WHERE feed index-probe pushdown
	// during FROM enumeration; WHERE still re-checks every conjunct, so
	// the probes only skip rows WHERE would reject.
	pd := pushdown{
		conds: eqConds(s.Where, nil),
		local: fromAliases(s.From, map[string]bool{}),
	}
	rows, err := e.fromRows(s.From, outer, pd)
	if err != nil {
		return nil, err
	}
	// WHERE.
	if s.Where != nil {
		var kept []row
		for _, r := range rows {
			tv, err := e.evalBool(s.Where, &frame{parent: outer, vals: r.vals}, nil)
			if err != nil {
				return nil, err
			}
			if tv.Holds() {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	attrs := s.OutNames()
	out := relation.New("result", attrs...)

	grouped := len(s.GroupBy) > 0 || s.Having != nil || sql.HasAggregate(s)
	if grouped {
		groups, err := e.groupRows(s, rows, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			fr := &frame{parent: outer, vals: g.rep.vals}
			if s.Having != nil {
				tv, err := e.evalBool(s.Having, fr, g)
				if err != nil {
					return nil, err
				}
				if !tv.Holds() {
					continue
				}
			}
			t := make(relation.Tuple, len(s.Items))
			for i, it := range s.Items {
				v, err := e.evalExpr(it.Expr, fr, g)
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			out.Insert(t)
		}
	} else {
		for _, r := range rows {
			fr := &frame{parent: outer, vals: r.vals}
			t := make(relation.Tuple, len(s.Items))
			for i, it := range s.Items {
				v, err := e.evalExpr(it.Expr, fr, nil)
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			out.InsertMult(t, r.weight)
		}
	}
	if s.Distinct {
		out = out.Dedup()
	}
	return out, nil
}

// groupCtx is one GROUP BY partition.
type groupCtx struct {
	rows []row
	rep  row
}

func (e *evaluator) groupRows(s *sql.Select, rows []row, outer *frame) ([]*groupCtx, error) {
	if len(s.GroupBy) == 0 {
		// Implicit single group — present even over zero rows (the SQL
		// behaviour that makes COUNT-bug version 1 return a row).
		g := &groupCtx{rows: rows}
		if len(rows) > 0 {
			g.rep = rows[0]
		} else {
			g.rep = row{vals: map[string]map[string]value.Value{}, weight: 1}
		}
		return []*groupCtx{g}, nil
	}
	index := map[string]int{}
	var groups []*groupCtx
	for _, r := range rows {
		fr := &frame{parent: outer, vals: r.vals}
		key := ""
		for _, g := range s.GroupBy {
			v, err := e.evalExpr(g, fr, nil)
			if err != nil {
				return nil, err
			}
			key += v.Key() + "\x1f"
		}
		if i, ok := index[key]; ok {
			groups[i].rows = append(groups[i].rows, r)
		} else {
			index[key] = len(groups)
			groups = append(groups, &groupCtx{rows: []row{r}, rep: r})
		}
	}
	return groups, nil
}

// pushdown carries the probe-pushdown context of one SELECT's FROM
// clause: the equality conjuncts usable as index probes and the set of
// every alias the clause binds (needed to detect references that would
// resolve to an outer correlation frame before their own table binds).
type pushdown struct {
	conds []*sql.Cmp
	local map[string]bool
}

// with returns the context with a different condition list (same FROM).
func (p pushdown) with(conds []*sql.Cmp) pushdown {
	return pushdown{conds: conds, local: p.local}
}

// fromAliases collects every alias bound by refs, including nested join
// subtrees.
func fromAliases(refs []sql.TableRef, dst map[string]bool) map[string]bool {
	for _, ref := range refs {
		switch x := ref.(type) {
		case *sql.BaseTable:
			dst[x.Binding()] = true
		case *sql.SubqueryTable:
			dst[x.Alias] = true
		case *sql.JoinRef:
			fromAliases([]sql.TableRef{x.Left, x.Right}, dst)
		}
	}
	return dst
}

// eqConds collects the top-level conjuncts of w that are plain equality
// comparisons — the candidates for index-probe pushdown.
func eqConds(w sql.Expr, dst []*sql.Cmp) []*sql.Cmp {
	switch n := w.(type) {
	case *sql.AndE:
		for _, k := range n.Kids {
			dst = eqConds(k, dst)
		}
	case *sql.Cmp:
		if n.Op == value.Eq {
			dst = append(dst, n)
		}
	}
	return dst
}

// fromRows enumerates the FROM clause (comma items cross-join). pd.conds
// are equality conjuncts guaranteed to be re-checked downstream (WHERE,
// or the ON of the join they came from); base-table enumeration uses them
// as hash-index probes when the other side is already evaluable.
func (e *evaluator) fromRows(refs []sql.TableRef, outer *frame, pd pushdown) ([]row, error) {
	rows := []row{{vals: map[string]map[string]value.Value{}, weight: 1}}
	for _, ref := range refs {
		var err error
		rows, err = e.joinInto(rows, ref, outer, pd)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func (e *evaluator) joinInto(rows []row, ref sql.TableRef, outer *frame, pd pushdown) ([]row, error) {
	switch x := ref.(type) {
	case *sql.BaseTable:
		rel := e.db[x.Name]
		if rel == nil {
			return nil, fmt.Errorf("unknown table %q", x.Name)
		}
		return e.extendTable(rows, x.Binding(), rel, pd, outer), nil
	case *sql.SubqueryTable:
		if x.Lateral {
			var out []row
			for _, r := range rows {
				rel, err := e.evalQuery(x.Query, &frame{parent: outer, vals: r.vals})
				if err != nil {
					return nil, err
				}
				out = append(out, e.extendAll([]row{r}, x.Alias, rel)...)
			}
			return out, nil
		}
		rel, err := e.evalQuery(x.Query, outer)
		if err != nil {
			return nil, err
		}
		return e.extendAll(rows, x.Alias, rel), nil
	case *sql.JoinRef:
		// Per-side probe-safety policy, decided once here: ON equalities
		// filter an inner join's sides symmetrically (probe-safe for
		// both); a left join's right side may be ON-restricted (dropped
		// rows either fail ON — same matched outcome — or a WHERE
		// conjunct), but its preserved left side and both FULL sides must
		// not be, since their unmatched rows null-extend with no ON
		// re-check.
		leftPD, rightPD := pd, pd
		switch x.Kind {
		case sql.JoinInner, sql.JoinCross:
			withOn := pd.with(eqConds(x.On, append([]*sql.Cmp(nil), pd.conds...)))
			leftPD, rightPD = withOn, withOn
		case sql.JoinLeft:
			rightPD = pd.with(eqConds(x.On, append([]*sql.Cmp(nil), pd.conds...)))
		}
		left, err := e.joinInto(rows, x.Left, outer, leftPD)
		if err != nil {
			return nil, err
		}
		return e.joinRight(left, x, outer, rightPD)
	}
	return nil, fmt.Errorf("unknown table ref %T", ref)
}

// joinRight joins already-enumerated left rows with x.Right under x.Kind.
// rightPD carries the equality conjuncts probe-safe for the right side,
// as decided by joinInto.
func (e *evaluator) joinRight(left []row, x *sql.JoinRef, outer *frame, rightPD pushdown) ([]row, error) {
	switch x.Kind {
	case sql.JoinInner, sql.JoinCross, sql.JoinLeft:
		var out []row
		for _, l := range left {
			rights, err := e.joinInto([]row{l}, x.Right, outer, rightPD)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, r := range rights {
				ok, err := e.onHolds(x.On, r, outer)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out = append(out, r)
				}
			}
			if x.Kind == sql.JoinLeft && !matched {
				ne, err := e.nullExtend(l, x.Right, outer)
				if err != nil {
					return nil, err
				}
				out = append(out, ne)
			}
		}
		return out, nil
	case sql.JoinFull:
		base := row{vals: map[string]map[string]value.Value{}, weight: 1}
		rights, err := e.joinInto([]row{base}, x.Right, outer, rightPD)
		if err != nil {
			return nil, err
		}
		matchedR := make([]bool, len(rights))
		var out []row
		for _, l := range left {
			matched := false
			for ri, r := range rights {
				merged := l
				for a, cols := range r.vals {
					merged = merged.extend(a, cols, 1)
				}
				merged.weight = l.weight * r.weight
				ok, err := e.onHolds(x.On, merged, outer)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					matchedR[ri] = true
					out = append(out, merged)
				}
			}
			if !matched {
				ne, err := e.nullExtend(l, x.Right, outer)
				if err != nil {
					return nil, err
				}
				out = append(out, ne)
			}
		}
		for ri, r := range rights {
			if matchedR[ri] {
				continue
			}
			// Unmatched right rows: NULL-extend over the left subtree.
			ne, err := e.nullExtend(r, x.Left, outer)
			if err != nil {
				return nil, err
			}
			out = append(out, ne)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown join kind %v", x.Kind)
}

func (e *evaluator) onHolds(on sql.Expr, r row, outer *frame) (bool, error) {
	if on == nil {
		return true, nil
	}
	tv, err := e.evalBool(on, &frame{parent: outer, vals: r.vals}, nil)
	if err != nil {
		return false, err
	}
	return tv.Holds(), nil
}

// nullExtend adds all-NULL bindings for every alias under ref.
func (e *evaluator) nullExtend(r row, ref sql.TableRef, outer *frame) (row, error) {
	switch x := ref.(type) {
	case *sql.BaseTable:
		rel := e.db[x.Name]
		if rel == nil {
			return row{}, fmt.Errorf("unknown table %q", x.Name)
		}
		cols := map[string]value.Value{}
		for _, a := range rel.Attrs() {
			cols[a] = value.Null()
		}
		return r.extend(x.Binding(), cols, 1), nil
	case *sql.SubqueryTable:
		rel, err := e.evalQuery(x.Query, &frame{parent: outer, vals: r.vals})
		if err != nil {
			return row{}, err
		}
		cols := map[string]value.Value{}
		for _, a := range rel.Attrs() {
			cols[a] = value.Null()
		}
		return r.extend(x.Alias, cols, 1), nil
	case *sql.JoinRef:
		l, err := e.nullExtend(r, x.Left, outer)
		if err != nil {
			return row{}, err
		}
		return e.nullExtend(l, x.Right, outer)
	}
	return row{}, fmt.Errorf("unknown table ref %T", ref)
}

// extendAll cross-joins rows with rel by full scan (no pushdown).
func (e *evaluator) extendAll(rows []row, alias string, rel *relation.Relation) []row {
	return e.extendWithPlans(rows, alias, rel, nil, pushdown{}, nil)
}

// probePlan is one pushdown condition usable against the table being
// extended: probe column col of the relation with the value of other.
// refs are other's column references, for the per-row resolvability
// check.
type probePlan struct {
	col   int
	other sql.Expr
	refs  []*sql.ColRef
}

// probePlans selects the conditions usable as index probes when extending
// with alias: one side must be a column qualified with alias, and the
// other side a simple expression (literals, column refs, arithmetic) that
// cannot resolve to the probed table itself — a reference that is
// qualified with alias, or unqualified but naming one of rel's columns,
// would change meaning once the alias is bound, so those are skipped.
func probePlans(alias string, rel *relation.Relation, conds []*sql.Cmp) []probePlan {
	var plans []probePlan
	for _, c := range conds {
		for _, sides := range [2][2]sql.Expr{{c.L, c.R}, {c.R, c.L}} {
			me, other := sides[0], sides[1]
			ref, ok := me.(*sql.ColRef)
			if !ok || ref.Table != alias {
				continue
			}
			col := rel.AttrIndex(ref.Column)
			if col < 0 || !simpleExprAvoiding(other, alias, rel) {
				continue
			}
			plans = append(plans, probePlan{col: col, other: other, refs: collectColRefs(other, nil)})
			break
		}
	}
	return plans
}

// simpleExprAvoiding reports whether x is a side-effect-free expression
// whose column references cannot resolve to the alias being probed.
func simpleExprAvoiding(x sql.Expr, alias string, rel *relation.Relation) bool {
	switch n := x.(type) {
	case *sql.Lit, *sql.Param:
		return true
	case *sql.ColRef:
		if n.Table == alias {
			return false
		}
		if n.Table == "" && rel.AttrIndex(n.Column) >= 0 {
			return false
		}
		return true
	case *sql.BinE:
		return simpleExprAvoiding(n.L, alias, rel) && simpleExprAvoiding(n.R, alias, rel)
	}
	return false
}

// collectColRefs gathers the column references of a probe expression.
func collectColRefs(x sql.Expr, dst []*sql.ColRef) []*sql.ColRef {
	switch n := x.(type) {
	case *sql.ColRef:
		dst = append(dst, n)
	case *sql.BinE:
		dst = collectColRefs(n.L, dst)
		dst = collectColRefs(n.R, dst)
	}
	return dst
}

// probeResolvable reports whether every column reference of a probe
// expression already resolves to its final binding in the current row:
// a reference qualified with an alias of this FROM clause that is not
// bound yet would fall through to an outer correlation frame (alias
// shadowing) and probe with the wrong value, and an unqualified
// reference must be bound at this level for the same reason.
func probeResolvable(refs []*sql.ColRef, vals map[string]map[string]value.Value, local map[string]bool) bool {
	for _, ref := range refs {
		if ref.Table != "" {
			if _, bound := vals[ref.Table]; bound {
				continue
			}
			if local[ref.Table] {
				return false // later table of this FROM; outer lookup would shadow it
			}
			continue // genuinely outer correlation
		}
		found := false
		for _, cols := range vals {
			if _, ok := cols[ref.Column]; ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// extendTable cross-joins rows with a base table, deriving the probe
// plans once for the call.
func (e *evaluator) extendTable(rows []row, alias string, rel *relation.Relation, pd pushdown, outer *frame) []row {
	return e.extendWithPlans(rows, alias, rel, probePlans(alias, rel, pd.conds), pd, outer)
}

// extendWithPlans cross-joins rows with rel. Pushdown plans whose probe
// expression evaluates in the current row (or an outer correlation frame)
// turn the scan into a hash-index probe; plans that do not resolve yet
// fall back to scanning, row by row. With no plans it is a pure scan.
func (e *evaluator) extendWithPlans(rows []row, alias string, rel *relation.Relation, plans []probePlan, pd pushdown, outer *frame) []row {
	attrs := rel.Attrs()
	var cols []int
	var vals []value.Value
	var out []row
	for _, r := range rows {
		cols, vals = cols[:0], vals[:0]
		if len(plans) > 0 {
			fr := &frame{parent: outer, vals: r.vals}
			for _, p := range plans {
				if !probeResolvable(p.refs, r.vals, pd.local) {
					continue // would resolve through a shadowed outer frame; scan covers it
				}
				v, err := e.evalExpr(p.other, fr, nil)
				if err != nil {
					continue // not evaluable yet; scan covers it
				}
				cols = append(cols, p.col)
				vals = append(vals, v)
			}
		}
		seq := exec.Scan(rel)
		if len(cols) > 0 {
			seq = exec.Probe(rel, cols, vals)
		}
		for t, mult := range seq {
			rowCols := make(map[string]value.Value, len(attrs))
			for i, a := range attrs {
				rowCols[a] = t[i]
			}
			out = append(out, r.extend(alias, rowCols, mult))
		}
	}
	return out
}
