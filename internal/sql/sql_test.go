package sql

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	s, ok := q.(*Select)
	if !ok {
		t.Fatalf("parse %q: got %T, want *Select", src, q)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustSelect(t, "select R.A, S.B from R, S where R.B = S.B and S.C = 0")
	if len(s.Items) != 2 || len(s.From) != 2 {
		t.Fatalf("items=%d from=%d", len(s.Items), len(s.From))
	}
	and, ok := s.Where.(*AndE)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("where = %T", s.Where)
	}
	cmp := and.Kids[1].(*Cmp)
	if cmp.Op != value.Eq || cmp.R.(*Lit).Val.AsInt() != 0 {
		t.Fatal("comparison parse broken")
	}
}

func TestParseDistinctAndAliases(t *testing.T) {
	s := mustSelect(t, "select distinct L1.drinker as d from Likes L1")
	if !s.Distinct {
		t.Fatal("DISTINCT missing")
	}
	if s.Items[0].Alias != "d" {
		t.Fatalf("alias = %q", s.Items[0].Alias)
	}
	bt := s.From[0].(*BaseTable)
	if bt.Name != "Likes" || bt.Alias != "L1" {
		t.Fatalf("table = %+v", bt)
	}
}

// Fig 4a: grouped aggregate.
func TestParseGroupBy(t *testing.T) {
	s := mustSelect(t, "select R.A, sum(R.B) sm from R group by R.A")
	if len(s.GroupBy) != 1 {
		t.Fatalf("group by = %v", s.GroupBy)
	}
	f := s.Items[1].Expr.(*FuncE)
	if f.Name != "sum" || s.Items[1].Alias != "sm" {
		t.Fatalf("aggregate item = %v alias=%q", f, s.Items[1].Alias)
	}
}

// Fig 6a: multiple aggregates with HAVING.
func TestParseHaving(t *testing.T) {
	s := mustSelect(t, `select R.dept, avg(S.sal) av
		from R, S
		where R.empl = S.empl
		group by R.dept
		having sum(S.sal) > 100`)
	if s.Having == nil {
		t.Fatal("HAVING missing")
	}
	cmp := s.Having.(*Cmp)
	if cmp.L.(*FuncE).Name != "sum" || cmp.Op != value.Gt {
		t.Fatal("HAVING parse broken")
	}
}

// Fig 3a / Fig 5b: lateral joins.
func TestParseLateralJoin(t *testing.T) {
	s := mustSelect(t, `select x.A, z.B from X as x
		join lateral (select y.A as B from Y as y where x.A < y.A) as z on true`)
	j := s.From[0].(*JoinRef)
	if j.Kind != JoinInner || j.On != nil {
		t.Fatalf("join = %+v (ON TRUE should become nil)", j)
	}
	sub := j.Right.(*SubqueryTable)
	if !sub.Lateral || sub.Alias != "z" {
		t.Fatalf("lateral subquery = %+v", sub)
	}
}

// Fig 13c / Fig 21c: LEFT JOIN with GROUP BY.
func TestParseLeftJoin(t *testing.T) {
	s := mustSelect(t, `select R2.id, count(S.d) as ct
		from R R2 left join S on R2.id = S.id group by R2.id`)
	j := s.From[0].(*JoinRef)
	if j.Kind != JoinLeft || j.On == nil {
		t.Fatalf("left join = %+v", j)
	}
	if j.Left.(*BaseTable).Alias != "R2" {
		t.Fatal("alias on left join input broken")
	}
	f := s.Items[1].Expr.(*FuncE)
	if f.Name != "count" || f.Star {
		t.Fatal("count(S.d) parse broken")
	}
}

func TestParseLeftOuterJoin(t *testing.T) {
	s := mustSelect(t, `select R.m, S.n from R left outer join S on (R.h = 11 and R.y = S.y)`)
	j := s.From[0].(*JoinRef)
	if j.Kind != JoinLeft {
		t.Fatalf("kind = %v", j.Kind)
	}
	if _, ok := j.On.(*AndE); !ok {
		t.Fatalf("ON = %T", j.On)
	}
}

// Fig 5a / Fig 21a: scalar subqueries.
func TestParseScalarSubquery(t *testing.T) {
	s := mustSelect(t, `select R.id from R
		where R.q = (select count(S.d) from S where S.id = R.id)`)
	cmp := s.Where.(*Cmp)
	sc, ok := cmp.R.(*Scalar)
	if !ok {
		t.Fatalf("scalar subquery = %T", cmp.R)
	}
	if _, ok := sc.Query.(*Select); !ok {
		t.Fatal("scalar body missing")
	}
}

// Fig 11: NOT IN and NOT EXISTS with IS NULL.
func TestParseNotInAndExists(t *testing.T) {
	s := mustSelect(t, `select R.A from R where R.A not in (select S.A from S)`)
	in := s.Where.(*InE)
	if !in.Negated {
		t.Fatal("NOT IN missing")
	}
	s2 := mustSelect(t, `select R.A from R where not exists
		(select 1 from S where S.A = R.A or S.A is null or R.A is null)`)
	ex := s2.Where.(*Exists)
	if !ex.Negated {
		t.Fatal("NOT EXISTS missing")
	}
	inner := ex.Query.(*Select)
	or := inner.Where.(*OrE)
	if len(or.Kids) != 3 {
		t.Fatalf("OR kids = %d", len(or.Kids))
	}
	if n, ok := or.Kids[1].(*IsNullE); !ok || n.Negated {
		t.Fatalf("IS NULL parse broken: %T", or.Kids[1])
	}
}

// Fig 17: deeply nested NOT EXISTS (unique-set query).
func TestParseUniqueSetQuery(t *testing.T) {
	src := `select distinct L1.drinker from Likes L1
	where not exists
	  (select 1 from Likes L2
	   where L1.drinker <> L2.drinker
	   and not exists
	     (select 1 from Likes L3
	      where L3.drinker = L2.drinker
	      and not exists
	        (select 1 from Likes L4
	         where L4.drinker = L1.drinker and L4.beer = L3.beer))
	   and not exists
	     (select 1 from Likes L5
	      where L5.drinker = L1.drinker
	      and not exists
	        (select 1 from Likes L6
	         where L6.drinker = L2.drinker and L6.beer = L5.beer)))`
	s := mustSelect(t, src)
	if !s.Distinct {
		t.Fatal("DISTINCT missing")
	}
	depth := 0
	var count func(e Expr)
	count = func(e Expr) {
		switch x := e.(type) {
		case *Exists:
			depth++
			if sel, ok := x.Query.(*Select); ok && sel.Where != nil {
				count(sel.Where)
			}
		case *AndE:
			for _, k := range x.Kids {
				count(k)
			}
		case *OrE:
			for _, k := range x.Kids {
				count(k)
			}
		case *NotE:
			count(x.Kid)
		}
	}
	count(s.Where)
	if depth != 5 {
		t.Fatalf("found %d EXISTS, want 5", depth)
	}
}

func TestParseUnion(t *testing.T) {
	q, err := Parse("select R.A from R union all select S.A from S union select T.A from T")
	if err != nil {
		t.Fatal(err)
	}
	u := q.(*Union)
	if u.All {
		t.Fatal("outer union should be plain UNION")
	}
	inner := u.Left.(*Union)
	if !inner.All {
		t.Fatal("inner union should be UNION ALL")
	}
}

func TestParseArithmetic(t *testing.T) {
	s := mustSelect(t, "select R.A from R, S, T where R.B - S.B > T.B")
	cmp := s.Where.(*Cmp)
	b := cmp.L.(*BinE)
	if b.Op != '-' {
		t.Fatalf("op = %c", b.Op)
	}
	s2 := mustSelect(t, "select A.val * B.val as v from A, B")
	if s2.Items[0].Expr.(*BinE).Op != '*' {
		t.Fatal("* parse broken")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustSelect(t, "select R.A from R where R.A = 1 or R.A = 2 and R.B = 3")
	or, ok := s.Where.(*OrE)
	if !ok || len(or.Kids) != 2 {
		t.Fatalf("OR should be top: %T", s.Where)
	}
	if _, ok := or.Kids[1].(*AndE); !ok {
		t.Fatal("AND should bind tighter than OR")
	}
	s2 := mustSelect(t, "select R.A from R where R.A = 1 + 2 * 3")
	cmp := s2.Where.(*Cmp)
	add := cmp.R.(*BinE)
	if add.Op != '+' || add.R.(*BinE).Op != '*' {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseCountStarAndDistinct(t *testing.T) {
	s := mustSelect(t, "select count(*) c, count(distinct R.A) d from R")
	if !s.Items[0].Expr.(*FuncE).Star {
		t.Fatal("count(*) broken")
	}
	if !s.Items[1].Expr.(*FuncE).Distinct {
		t.Fatal("count(distinct) broken")
	}
}

func TestParseQuotedIdent(t *testing.T) {
	s := mustSelect(t, `select R.A from R, "-" where R.B = "-".left`)
	bt := s.From[1].(*BaseTable)
	if bt.Name != "-" {
		t.Fatalf("quoted table = %q", bt.Name)
	}
	cmp := s.Where.(*Cmp)
	cr := cmp.R.(*ColRef)
	if cr.Table != "-" || cr.Column != "left" {
		t.Fatalf("quoted column ref = %+v", cr)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"select",
		"select R.A from",
		"select R.A from R where",
		"select R.A from (select S.A from S)",   // missing alias
		"select R.A from R where R.A in select", // missing paren
		"select R.A from R group",
		"select 'unterminated from R",
		"select R.A from R; extra",
		"select R.A from R where R.A ?",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseNegativeNumber(t *testing.T) {
	s := mustSelect(t, "select R.A from R where R.B = -5")
	cmp := s.Where.(*Cmp)
	if cmp.R.(*Lit).Val.AsInt() != -5 {
		t.Fatal("negative literal broken")
	}
}

func TestRoundTripPrinting(t *testing.T) {
	srcs := []string{
		"select R.A, sum(R.B) AS sm from R group by R.A",
		"select distinct R.A from R where R.A not in (select S.A from S)",
		"select R.m, S.n from R left join S on R.h = 11 and R.y = S.y",
		"select x.A from X x join lateral (select y.A from Y y where x.A < y.A) z on true",
		"select R.A from R union all select S.A from S",
		"select count(*) AS c from R having count(*) > 2",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if q2.String() != printed {
			t.Errorf("print not stable:\n1: %s\n2: %s", printed, q2.String())
		}
	}
}

func TestLexerComments(t *testing.T) {
	s := mustSelect(t, "select R.A -- trailing comment\nfrom R")
	if len(s.Items) != 1 {
		t.Fatal("comment handling broken")
	}
}

func TestStringEscapes(t *testing.T) {
	s := mustSelect(t, "select R.A from R where R.name = 'O''Brien'")
	cmp := s.Where.(*Cmp)
	if cmp.R.(*Lit).Val.AsString() != "O'Brien" {
		t.Fatalf("escape = %q", cmp.R.(*Lit).Val.AsString())
	}
}

func TestOutNames(t *testing.T) {
	s := mustSelect(t, "select R.A, R.B + 1, R.C as z from R")
	if s.Items[0].OutName(0) != "A" || s.Items[1].OutName(1) != "col2" || s.Items[2].OutName(2) != "z" {
		t.Fatalf("out names: %q %q %q", s.Items[0].OutName(0), s.Items[1].OutName(1), s.Items[2].OutName(2))
	}
}

func TestSelectOutNamesRenamesRepeats(t *testing.T) {
	s := mustSelect(t, "select R.A, R.A, R.B A, R.B + 1, R.C col4 from R")
	if got := strings.Join(s.OutNames(), " "); got != "A A_2 A_3 col4 col4_2" {
		t.Fatalf("OutNames = %s", got)
	}
}

// HasAggregate looks through arithmetic, comparisons and boolean
// structure of the items and HAVING, never into a subquery.
func TestHasAggregate(t *testing.T) {
	for src, want := range map[string]bool{
		"select R.A from R":                                        false,
		"select R.A + 1 from R where R.B > 2":                      false,
		"select 1 + count(*) from R":                               true,
		"select R.A from R group by R.A having not (sum(R.B) > 3)": true,
		"select (select max(S.B) from S) from R":                   false,
		"select R.A from R where R.B in (select count(*) from S)":  false,
	} {
		if got := HasAggregate(mustSelect(t, src)); got != want {
			t.Errorf("HasAggregate(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestStringsOfAST(t *testing.T) {
	srcs := map[string]string{
		"select R.A from R where exists (select 1 from S)": "EXISTS",
		"select R.A from R where R.A is not null":          "IS NOT NULL",
		"select R.A from R cross join S":                   "CROSS JOIN",
		"select R.A from R full join S on R.A = S.A":       "FULL JOIN",
		"select R.A from R where not (R.A = 1)":            "NOT (",
		"select count(distinct R.A) from R":                "count(DISTINCT",
	}
	for src, want := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if !strings.Contains(q.String(), want) {
			t.Errorf("%q renders %q, missing %q", src, q.String(), want)
		}
	}
}

func TestParseWithRecursive(t *testing.T) {
	src := `with recursive tc(x, y) as (
		select E.s, E.t from E
		union
		select tc.x, E.t from tc, E where tc.y = E.s
	), top as (select tc.x from tc)
	select top.x from top`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := q.(*With)
	if !ok {
		t.Fatalf("parsed %T, want *With", q)
	}
	if !w.Recursive || len(w.CTEs) != 2 {
		t.Fatalf("recursive=%v ctes=%d", w.Recursive, len(w.CTEs))
	}
	if w.CTEs[0].Name != "tc" || len(w.CTEs[0].Cols) != 2 || w.CTEs[1].Name != "top" {
		t.Fatalf("CTE heads parsed wrong: %+v", w.CTEs)
	}
	base, step, all, rec, err := w.CTEs[0].SplitRecursive()
	if err != nil || !rec || all {
		t.Fatalf("split: rec=%v all=%v err=%v", rec, all, err)
	}
	if ReferencesTable(base, "tc") || !ReferencesTable(step, "tc") {
		t.Fatal("base/step reference split wrong")
	}
	if _, _, _, rec, _ = w.CTEs[1].SplitRecursive(); rec {
		t.Fatal("non-recursive CTE classified recursive")
	}
	// Round trip: the rendering parses back to the same rendering.
	again, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if again.String() != q.String() {
		t.Fatalf("round trip drifted:\n%s\n%s", q.String(), again.String())
	}
}

func TestParseWithErrors(t *testing.T) {
	for _, src := range []string{
		"with as (select 1) select 1",                 // missing name
		"with x select 1",                             // missing AS
		"with x as select 1 from R",                   // missing parens
		"with recursive x() as (select 1) select x.a", // empty column list
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed, want error", src)
		}
	}
}

func TestSplitRecursiveErrors(t *testing.T) {
	// Self-reference without UNION shape.
	q := MustParse("with recursive x as (select x.a from x) select x.a from x")
	if _, _, _, _, err := q.(*With).CTEs[0].SplitRecursive(); err == nil {
		t.Fatal("self-reference without UNION must error")
	}
	// Self-reference in the base term.
	q = MustParse("with recursive x as (select x.a from x union select R.A from R) select x.a from x")
	if _, _, _, _, err := q.(*With).CTEs[0].SplitRecursive(); err == nil {
		t.Fatal("self-reference in base term must error")
	}
}
