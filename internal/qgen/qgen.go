// Package qgen generates random SQL queries over a fixed test schema for
// differential testing: every generated query is evaluated by the
// independent SQL reference evaluator (internal/sqleval) and — after
// sql2arc translation — by the ARC evaluator; the two must agree. This is
// the mechanical version of the paper's Section 5 goal that "every query
// [in a well-defined SQL fragment] has a pattern-preserving ARC
// representation" with semantics-preserving round-tripping.
package qgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/relation"
	"repro/internal/workload"
)

// Schema is the fixed differential-testing schema.
// R(A,B), S(B,C), T(A,C) over small integer domains (to force joins,
// duplicates, and empty groups).
type Schema struct {
	R, S, T *relation.Relation
}

// RandomInstance generates an instance with the given size and
// optionally NULLs sprinkled into S.C.
func RandomInstance(rng *rand.Rand, n int, withNulls bool) Schema {
	r := workload.RandomBinary(rng, "R", "A", "B", n, 6, 5)
	s := workload.RandomBinary(rng, "S", "B", "C", n, 5, 4)
	t := workload.RandomBinary(rng, "T", "A", "C", n, 6, 4)
	if withNulls {
		for i := 0; i < n/5+1; i++ {
			s.Insert(relation.Tuple{relation.Lift(rng.Intn(5)), relation.Lift(nil)})
		}
	}
	return Schema{R: r, S: s, T: t}
}

// Relations lists the instance's relations.
func (s Schema) Relations() []*relation.Relation {
	return []*relation.Relation{s.R, s.S, s.T}
}

var tables = []struct {
	name  string
	attrs []string
}{
	{"R", []string{"A", "B"}},
	{"S", []string{"B", "C"}},
	{"T", []string{"A", "C"}},
}

// gen carries generation state for one query.
type gen struct {
	rng     *rand.Rand
	aliases []string // alias i ranges over tables[tableOf[i]]
	tableOf []int
	depth   int
}

// Generate produces one random SQL query string from the grammar:
//
//	SELECT [DISTINCT] cols|aggregates FROM 1..3 tables
//	WHERE conjunction of {join eq, const cmp, [NOT] EXISTS, IN, IS NULL}
//	[GROUP BY col [HAVING agg cmp const]]
//
// All generated queries are valid over the Schema above and are
// deterministic per rng state.
func Generate(rng *rand.Rand) string {
	g := &gen{rng: rng}
	return g.query(true)
}

func (g *gen) pickTable() int { return g.rng.Intn(len(tables)) }

func (g *gen) addAlias() int {
	ti := g.pickTable()
	alias := fmt.Sprintf("%s%d", strings.ToLower(tables[ti].name), len(g.aliases))
	g.aliases = append(g.aliases, alias)
	g.tableOf = append(g.tableOf, ti)
	return len(g.aliases) - 1
}

func (g *gen) col(i int) string {
	attrs := tables[g.tableOf[i]].attrs
	return g.aliases[i] + "." + attrs[g.rng.Intn(len(attrs))]
}

// query generates one SELECT; top allows aggregation.
func (g *gen) query(top bool) string {
	saveAliases, saveTables := g.aliases, g.tableOf
	defer func() { g.aliases, g.tableOf = saveAliases, saveTables }()
	g.aliases, g.tableOf = nil, nil

	n := 1 + g.rng.Intn(2)
	if top {
		n = 1 + g.rng.Intn(3)
	}
	var froms []string
	for i := 0; i < n; i++ {
		ai := g.addAlias()
		froms = append(froms, tables[g.tableOf[ai]].name+" "+g.aliases[ai])
	}

	var conds []string
	// Join conditions chain the FROM items so results stay small.
	for i := 1; i < n; i++ {
		conds = append(conds, fmt.Sprintf("%s = %s", g.col(i-1), g.col(i)))
	}
	// Extra random conditions.
	for k := g.rng.Intn(3); k > 0; k-- {
		conds = append(conds, g.condition())
	}

	grouped := top && g.rng.Intn(3) == 0
	distinct := ""
	if g.rng.Intn(3) == 0 {
		distinct = "distinct "
	}
	var items, tail string
	if grouped {
		key := g.col(0)
		agg := []string{"sum", "count", "min", "max"}[g.rng.Intn(4)]
		items = fmt.Sprintf("%s, %s(%s) ag", key, agg, g.col(g.rng.Intn(n)))
		tail = " group by " + key
		if g.rng.Intn(2) == 0 {
			tail += fmt.Sprintf(" having count(%s) >= %d", g.col(0), g.rng.Intn(3))
		}
		distinct = ""
	} else {
		k := 1 + g.rng.Intn(2)
		var cols []string
		for i := 0; i < k; i++ {
			cols = append(cols, fmt.Sprintf("%s c%d", g.col(g.rng.Intn(n)), i))
		}
		items = strings.Join(cols, ", ")
	}
	q := "select " + distinct + items + " from " + strings.Join(froms, ", ")
	if len(conds) > 0 {
		q += " where " + strings.Join(conds, " and ")
	}
	return q + tail
}

// GenerateJoins produces one random query over the same schema whose
// FROM uses explicit [INNER|LEFT|FULL] JOIN … ON syntax — the corpus the
// planner-vs-enumeration differential suite uses to stress hashed
// outer-join compilation (NULL join keys, constant ON conjuncts,
// residual ON predicates).
func GenerateJoins(rng *rand.Rand) string {
	g := &gen{rng: rng}
	n := 2 + g.rng.Intn(2)
	var aliasIdx []int
	for i := 0; i < n; i++ {
		aliasIdx = append(aliasIdx, g.addAlias())
	}
	from := tables[g.tableOf[aliasIdx[0]]].name + " " + g.aliases[aliasIdx[0]]
	for i := 1; i < n; i++ {
		kind := []string{"join", "left join", "full join"}[g.rng.Intn(3)]
		on := fmt.Sprintf("%s = %s", g.col(aliasIdx[i-1]), g.col(aliasIdx[i]))
		if g.rng.Intn(3) == 0 {
			on += fmt.Sprintf(" and %s %s %d",
				g.col(aliasIdx[g.rng.Intn(i+1)]),
				[]string{"=", "<", ">="}[g.rng.Intn(3)], g.rng.Intn(5))
		}
		from += fmt.Sprintf(" %s %s %s on %s",
			kind, tables[g.tableOf[aliasIdx[i]]].name, g.aliases[aliasIdx[i]], on)
	}
	var items []string
	for i := 0; i < 1+g.rng.Intn(2); i++ {
		items = append(items, fmt.Sprintf("%s c%d", g.col(g.rng.Intn(n)), i))
	}
	q := "select " + strings.Join(items, ", ") + " from " + from
	var conds []string
	for k := g.rng.Intn(2); k > 0; k-- {
		conds = append(conds, g.condition())
	}
	if len(conds) > 0 {
		q += " where " + strings.Join(conds, " and ")
	}
	return q
}

// GenerateRange produces one random query whose WHERE stresses range
// predicates — single- and double-bounded comparisons, flipped literal
// sides, and [NOT] BETWEEN — the corpus the planner's RangeScan
// lowering is differentially verified on (ordered-index range probes
// must agree byte-for-byte with the enumeration filters they replace,
// including NULL column values).
func GenerateRange(rng *rand.Rand) string {
	g := &gen{rng: rng}
	n := 1 + g.rng.Intn(2)
	var froms []string
	for i := 0; i < n; i++ {
		ai := g.addAlias()
		froms = append(froms, tables[g.tableOf[ai]].name+" "+g.aliases[ai])
	}
	var conds []string
	for i := 1; i < n; i++ {
		conds = append(conds, fmt.Sprintf("%s = %s", g.col(i-1), g.col(i)))
	}
	for k := 1 + g.rng.Intn(3); k > 0; k-- {
		conds = append(conds, g.rangeCond())
	}
	var items []string
	for i := 0; i < 1+g.rng.Intn(2); i++ {
		items = append(items, fmt.Sprintf("%s c%d", g.col(g.rng.Intn(n)), i))
	}
	q := "select " + strings.Join(items, ", ") + " from " + strings.Join(froms, ", ")
	return q + " where " + strings.Join(conds, " and ")
}

// rangeCond generates one ordering conjunct over small constants, so
// double-bounded ranges are frequently non-empty.
func (g *gen) rangeCond() string {
	col := g.col(g.rng.Intn(len(g.aliases)))
	a, b := g.rng.Intn(6), g.rng.Intn(6)
	if a > b {
		a, b = b, a
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s between %d and %d", col, a, b)
	case 1:
		return fmt.Sprintf("%s not between %d and %d", col, a, b)
	case 2:
		return fmt.Sprintf("%d %s %s", a, []string{"<", "<="}[g.rng.Intn(2)], col)
	default:
		return fmt.Sprintf("%s %s %d", col, []string{"<", "<=", ">", ">="}[g.rng.Intn(4)], b)
	}
}

// GenerateRecursive produces one random WITH RECURSIVE query over the
// same schema — the corpus the recursion differential suite runs
// plan-vs-reference. Shapes: transitive closure over R(A,B) read as an
// edge relation, same-generation pairs, and depth-bounded step joins.
// UNION variants rely on set termination over the small cyclic domains;
// UNION ALL variants always carry a depth counter bounding the
// recursion, since bag accumulation over a cyclic instance would
// otherwise diverge.
func GenerateRecursive(rng *rand.Rand) string {
	g := &gen{rng: rng}
	switch g.rng.Intn(3) {
	case 0:
		return g.recursiveTC()
	case 1:
		return g.recursiveSameGen()
	}
	return g.recursiveBounded()
}

// recursiveTC: plain transitive closure, UNION (set termination).
func (g *gen) recursiveTC() string {
	edge := []string{"R", "S", "T"}[g.rng.Intn(3)]
	attrs := tables[indexOfTable(edge)].attrs
	q := fmt.Sprintf(
		"with recursive tc(x, y) as (select e.%[2]s, e.%[3]s from %[1]s e union select tc.x, e.%[3]s from tc, %[1]s e where tc.y = e.%[2]s) ",
		edge, attrs[0], attrs[1])
	return q + g.recursiveBody("tc", []string{"x", "y"})
}

// recursiveSameGen: same-generation pairs over R(A,B) (A = parent,
// B = child), UNION.
func (g *gen) recursiveSameGen() string {
	q := "with recursive sg(x, y) as (" +
		"select r.B, r2.B from R r, R r2 where r.A = r2.A" +
		" union " +
		"select r.B, r2.B from R r, sg, R r2 where r.A = sg.x and r2.A = sg.y) "
	return q + g.recursiveBody("sg", []string{"x", "y"})
}

// recursiveBounded: depth-counted step join, UNION or UNION ALL (the
// counter bounds both).
func (g *gen) recursiveBounded() string {
	edge := []string{"R", "S"}[g.rng.Intn(2)]
	attrs := tables[indexOfTable(edge)].attrs
	depth := 2 + g.rng.Intn(3)
	mode := "union"
	if g.rng.Intn(2) == 0 {
		mode = "union all"
	}
	q := fmt.Sprintf(
		"with recursive walk(x, y, d) as (select e.%[2]s, e.%[3]s, 1 from %[1]s e %[4]s select walk.x, e.%[3]s, walk.d + 1 from walk, %[1]s e where walk.y = e.%[2]s and walk.d < %[5]d) ",
		edge, attrs[0], attrs[1], mode, depth)
	return q + g.recursiveBody("walk", []string{"x", "y", "d"})
}

// recursiveBody builds the outer query over a CTE: projected columns
// with optional constant restriction or a join back to a base table.
func (g *gen) recursiveBody(cte string, cols []string) string {
	c1 := cols[g.rng.Intn(len(cols))]
	c2 := cols[g.rng.Intn(len(cols))]
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("select %s.%s c0, %s.%s c1 from %s", cte, c1, cte, c2, cte)
	case 1:
		return fmt.Sprintf("select distinct %s.%s c0 from %s", cte, c1, cte)
	case 2:
		return fmt.Sprintf("select %s.%s c0, %s.%s c1 from %s where %s.%s %s %d",
			cte, c1, cte, c2, cte, cte, cols[0],
			[]string{"=", "<", ">="}[g.rng.Intn(3)], g.rng.Intn(6))
	default:
		// Join back to a base table on the first CTE column.
		ti := g.pickTable()
		tb := tables[ti]
		ja := tb.attrs[g.rng.Intn(len(tb.attrs))]
		return fmt.Sprintf("select %s.%s c0, z.%s c1 from %s, %s z where %s.%s = z.%s",
			cte, c1, ja, cte, tb.name, cte, cols[g.rng.Intn(len(cols))], ja)
	}
}

// GenerateDatalog produces one random Datalog rule defining Q over the
// schema (atoms are positional: R/2, S/2, T/2), in the shapes whose ARC
// lowering nests a scope inside a scope: after the atom R(a,b), an
// aggregate — count, sum, min, max or mean over a body correlated with
// the rule on zero, one or two variables, now and then with a comparison,
// a negated atom or an aggregate of its own, or correlated through
// arithmetic or an inequality — a negated atom with or without a
// constant, or both; sometimes two aggregates, sometimes an aggregate
// compared with a variable the rule already grounds (the count-bug
// shape).
func GenerateDatalog(rng *rand.Rand) string {
	g := &gen{rng: rng}
	neg := func() string {
		return []string{"!S(b,0)", "!S(b,_)", "!T(a,1)", "!T(a,_)", "!S(b,a)", "!T(a,b)"}[rng.Intn(6)]
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("Q(a) :- R(a,b), %s.", neg())
	case 1:
		return fmt.Sprintf("Q(a,v) :- R(a,b), %s, %s.", neg(), g.aggregate("v", 0))
	case 2:
		return fmt.Sprintf("Q(a,v,w) :- R(a,b), %s, %s.", g.aggregate("v", 0), g.aggregate("w", 0))
	case 3:
		return fmt.Sprintf("Q(a) :- R(a,b), b = count : {%s}.", g.aggBody(0))
	}
	return fmt.Sprintf("Q(a,v) :- R(a,b), %s.", g.aggregate("v", 0))
}

// aggregate generates "res = fn expr : {body}"; level numbers the body's
// own variables so nested bodies do not capture each other's.
func (g *gen) aggregate(res string, level int) string {
	fn := []string{"count", "sum", "min", "max", "mean"}[g.rng.Intn(5)]
	if fn == "count" {
		return fmt.Sprintf("%s = count : {%s}", res, g.aggBody(level))
	}
	if level == 0 && g.rng.Intn(6) == 0 {
		// An aggregate over aggregates: the inner one correlates with the
		// middle body, which correlates with the rule.
		return fmt.Sprintf("%s = %s n1 : {T(a,c0), %s}", res, fn, g.aggregate("n1", 1))
	}
	return fmt.Sprintf("%s = %s c%d : {%s}", res, fn, level, g.aggBody(level))
}

// aggBody generates an aggregate body that grounds c<level>, correlated
// with the variables a, b (the rule's) or c0 (the enclosing body's).
func (g *gen) aggBody(level int) string {
	c := fmt.Sprintf("c%d", level)
	if level > 0 {
		return fmt.Sprintf([]string{"S(c0,%[1]s)", "T(c0,%[1]s), %[1]s > 0", "S(_,%[1]s)"}[g.rng.Intn(3)], c)
	}
	shapes := []string{
		"S(_,%[1]s)",                      // uncorrelated
		"S(b,%[1]s)",                      // one variable
		"T(a,%[1]s)",                      // one variable
		"T(a,%[1]s), S(b,%[1]s)",          // two variables, two atoms
		"R(a,b), S(b,%[1]s)",              // two variables on one atom
		"S(b,%[1]s), %[1]s > 1",           // with a comparison
		"S(b,%[1]s), !T(_,%[1]s)",         // with a negated atom of its own
		"S(b2,%[1]s), b2 = b + 1",         // correlated through arithmetic
		"S(b,%[1]s), T(a2,%[1]s), a2 < a", // correlated through an inequality
		"S(b,%[1]s), !T(a,%[1]s)",         // negated atom reading past its body
	}
	// The last two keep their scope on environment enumeration; one body
	// in twenty is one of them, so the fallback stays covered.
	i := g.rng.Intn(len(shapes) - 2)
	if g.rng.Intn(20) == 0 {
		i = len(shapes) - 2 + g.rng.Intn(2)
	}
	return fmt.Sprintf(shapes[i], c)
}

func indexOfTable(name string) int {
	for i, t := range tables {
		if t.name == name {
			return i
		}
	}
	return 0
}

// condition generates one WHERE conjunct.
func (g *gen) condition() string {
	switch c := g.rng.Intn(6); {
	case c == 0 && g.depth < 2: // EXISTS
		g.depth++
		defer func() { g.depth-- }()
		corr := g.col(g.rng.Intn(len(g.aliases)))
		inner := g.subquery(corr)
		neg := ""
		if g.rng.Intn(2) == 0 {
			neg = "not "
		}
		return neg + "exists (" + inner + ")"
	case c == 1 && g.depth < 2: // IN
		g.depth++
		defer func() { g.depth-- }()
		lhs := g.col(g.rng.Intn(len(g.aliases)))
		ti := g.pickTable()
		attrs := tables[ti].attrs
		col := attrs[g.rng.Intn(len(attrs))]
		neg := ""
		if g.rng.Intn(3) == 0 {
			neg = "not "
		}
		return fmt.Sprintf("%s %sin (select z.%s from %s z)", lhs, neg, col, tables[ti].name)
	case c == 2:
		return g.col(g.rng.Intn(len(g.aliases))) + " is null"
	case c == 3:
		return g.col(g.rng.Intn(len(g.aliases))) + " is not null"
	default:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[g.rng.Intn(6)]
		return fmt.Sprintf("%s %s %d", g.col(g.rng.Intn(len(g.aliases))), op, g.rng.Intn(6))
	}
}

// subquery builds a correlated single-table EXISTS body.
func (g *gen) subquery(corr string) string {
	ti := g.pickTable()
	attrs := tables[ti].attrs
	alias := fmt.Sprintf("w%d", g.rng.Intn(100))
	col := attrs[g.rng.Intn(len(attrs))]
	cond := fmt.Sprintf("%s.%s = %s", alias, col, corr)
	if g.rng.Intn(3) == 0 {
		cond += fmt.Sprintf(" and %s.%s < %d", alias, attrs[g.rng.Intn(len(attrs))], g.rng.Intn(6))
	}
	return fmt.Sprintf("select 1 from %s %s where %s", tables[ti].name, alias, cond)
}
