package sqleval

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

func db1() DB {
	return NewDB(
		relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(3, 30),
		relation.New("S", "B", "C").Add(10, 0).Add(20, 5).Add(30, 0),
	)
}

func mustEval(t *testing.T, src string, db DB) *relation.Relation {
	t.Helper()
	rel, err := EvalString(src, db)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return rel
}

func wantSet(t *testing.T, got *relation.Relation, want *relation.Relation) {
	t.Helper()
	if !got.EqualSet(want) {
		t.Fatalf("set mismatch:\ngot\n%s\nwant\n%s", got, want)
	}
}

func TestSelectProjectJoin(t *testing.T) {
	got := mustEval(t, "select R.A from R, S where R.B = S.B and S.C = 0", db1())
	wantSet(t, got, relation.New("W", "A").Add(1).Add(3))
}

func TestSelectNoFrom(t *testing.T) {
	got := mustEval(t, "select 1", NewDB())
	if got.Card() != 1 || got.Tuples()[0][0].AsInt() != 1 {
		t.Fatalf("select 1 = %s", got)
	}
}

func TestBagSemantics(t *testing.T) {
	db := NewDB(relation.New("R", "A").Add(1).Add(1).Add(2))
	got := mustEval(t, "select R.A from R", db)
	if got.Mult(relation.Tuple{value.Int(1)}) != 2 {
		t.Fatalf("bag multiplicity lost:\n%s", got)
	}
	d := mustEval(t, "select distinct R.A from R", db)
	if d.Card() != 2 {
		t.Fatalf("DISTINCT broken:\n%s", d)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := NewDB(relation.New("R", "A", "B").Add(1, 10).Add(1, 20).Add(2, 5))
	got := mustEval(t, "select R.A, sum(R.B) sm, count(R.B) ct from R group by R.A", db)
	want := relation.New("W", "A", "sm", "ct").Add(1, 30, 2).Add(2, 5, 1)
	wantSet(t, got, want)
}

func TestImplicitGrouping(t *testing.T) {
	db := NewDB(relation.New("R", "A").Add(1).Add(2))
	got := mustEval(t, "select count(*) c, sum(R.A) s from R", db)
	wantSet(t, got, relation.New("W", "c", "s").Add(2, 3))
	// Over an empty table: one row, count 0, sum NULL.
	empty := NewDB(relation.New("R", "A"))
	got0 := mustEval(t, "select count(*) c, sum(R.A) s from R", empty)
	wantSet(t, got0, relation.New("W", "c", "s").Add(0, nil))
}

func TestHaving(t *testing.T) {
	db := NewDB(
		relation.New("R", "empl", "dept").Add("e1", "d1").Add("e2", "d1").Add("e3", "d2"),
		relation.New("S", "empl", "sal").Add("e1", 60).Add("e2", 70).Add("e3", 40),
	)
	got := mustEval(t, `select R.dept, avg(S.sal) av from R, S
		where R.empl = S.empl group by R.dept having sum(S.sal) > 100`, db)
	wantSet(t, got, relation.New("W", "dept", "av").Add("d1", 65.0))
}

func TestScalarSubquery(t *testing.T) {
	db := NewDB(
		relation.New("R", "id", "q").Add(9, 0),
		relation.New("S", "id", "d"),
	)
	// COUNT-bug version 1: must return 9.
	got := mustEval(t, `select R.id from R
		where R.q = (select count(S.d) from S where S.id = R.id)`, db)
	wantSet(t, got, relation.New("W", "id").Add(9))
	// Version 2: empty.
	got2 := mustEval(t, `select R.id from R,
		(select S.id, count(S.d) as ct from S group by S.id) as X
		where R.q = X.ct and R.id = X.id`, db)
	if got2.Card() != 0 {
		t.Fatalf("COUNT-bug version 2 should be empty:\n%s", got2)
	}
	// Version 3: left join fixes it.
	got3 := mustEval(t, `select R.id from R,
		(select R2.id, count(S.d) as ct from R R2 left join S on R2.id = S.id group by R2.id) as X
		where R.q = X.ct and R.id = X.id`, db)
	wantSet(t, got3, relation.New("W", "id").Add(9))
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	db := NewDB(
		relation.New("R", "A").Add(1),
		relation.New("S", "A", "B"),
	)
	got := mustEval(t, "select R.A, (select sum(S.B) from S where S.A = R.A) sm from R", db)
	wantSet(t, got, relation.New("W", "A", "sm").Add(1, nil))
}

func TestExistsAndNotExists(t *testing.T) {
	got := mustEval(t, `select R.A from R where exists (select 1 from S where S.B = R.B and S.C = 0)`, db1())
	wantSet(t, got, relation.New("W", "A").Add(1).Add(3))
	got2 := mustEval(t, `select R.A from R where not exists (select 1 from S where S.B = R.B and S.C = 0)`, db1())
	wantSet(t, got2, relation.New("W", "A").Add(2))
}

func TestNotInNullBehaviour(t *testing.T) {
	db := NewDB(
		relation.New("R", "A").Add(1).Add(2).Add(3),
		relation.New("S", "A").Add(2),
	)
	got := mustEval(t, "select R.A from R where R.A not in (select S.A from S)", db)
	wantSet(t, got, relation.New("W", "A").Add(1).Add(3))
	// Fig 11: any NULL in S empties the NOT IN result.
	dbNull := NewDB(
		relation.New("R", "A").Add(1).Add(2).Add(3),
		relation.New("S", "A").Add(2).Add(nil),
	)
	gotNull := mustEval(t, "select R.A from R where R.A not in (select S.A from S)", dbNull)
	if gotNull.Card() != 0 {
		t.Fatalf("NOT IN with NULL should be empty:\n%s", gotNull)
	}
	// The NOT EXISTS rewrite (Fig 11b) agrees.
	rewrite := `select R.A from R where not exists
		(select 1 from S where S.A = R.A or S.A is null or R.A is null)`
	if g := mustEval(t, rewrite, dbNull); g.Card() != 0 {
		t.Fatalf("NOT EXISTS rewrite mismatch:\n%s", g)
	}
	wantSet(t, mustEval(t, rewrite, db), got)
}

func TestLeftJoin(t *testing.T) {
	db := NewDB(
		relation.New("R", "m", "y", "h").Add("r1", 1, 11).Add("r2", 2, 11).Add("r3", 3, 99),
		relation.New("S", "y", "n", "q").Add(1, "n1", 0).Add(3, "n3", 0),
	)
	// Fig 12a: the complicated ON condition.
	got := mustEval(t, `select R.m, S.n from R left outer join S on (R.h = 11 and R.y = S.y)`, db)
	want := relation.New("W", "m", "n").Add("r1", "n1").Add("r2", nil).Add("r3", nil)
	wantSet(t, got, want)
}

func TestFullJoin(t *testing.T) {
	db := NewDB(
		relation.New("R", "a").Add(1).Add(2),
		relation.New("S", "b").Add(2).Add(3),
	)
	got := mustEval(t, "select R.a, S.b from R full join S on R.a = S.b", db)
	want := relation.New("W", "a", "b").Add(1, nil).Add(2, 2).Add(nil, 3)
	wantSet(t, got, want)
}

func TestLateralJoin(t *testing.T) {
	db := NewDB(
		relation.New("X", "A").Add(1).Add(5),
		relation.New("Y", "A").Add(3).Add(7),
	)
	// Fig 3a.
	got := mustEval(t, `select x.A, z.B from X as x
		join lateral (select y.A as B from Y as y where x.A < y.A) as z on true`, db)
	want := relation.New("W", "A", "B").Add(1, 3).Add(1, 7).Add(5, 7)
	wantSet(t, got, want)
}

func TestLateralVsScalarEquivalence(t *testing.T) {
	// Fig 5a ≡ Fig 5b on duplicate-free input.
	db := NewDB(relation.New("R", "A", "B").Add(1, 10).Add(1, 20).Add(2, 5))
	scalar := mustEval(t, `select distinct R.A,
		(select sum(R2.B) sm from R R2 where R2.A = R.A) from R`, db)
	lateral := mustEval(t, `select distinct R.A, X.sm from R join lateral
		(select sum(R2.B) sm from R R2 where R2.A = R.A) X on true`, db)
	wantSet(t, scalar, lateral)
}

func TestFig13BagCounterexample(t *testing.T) {
	// Fig 13: with duplicates in R, the scalar (a) and lateral (b) forms
	// agree under bags, but the LEFT JOIN + GROUP BY form (c) collapses
	// duplicate R rows.
	db := NewDB(
		relation.New("R", "A").Add(1).Add(1), // duplicate outer tuple
		relation.New("S", "A", "B").Add(0, 7),
	)
	scalar := mustEval(t, `select R.A, (select sum(S.B) sm from S where S.A < R.A) from R`, db)
	lateral := mustEval(t, `select R.A, X.sm from R join lateral
		(select sum(S.B) sm from S where S.A < R.A) X on true`, db)
	leftJoin := mustEval(t, `select R.A, sum(S.B) sm from R left join S on S.A < R.A group by R.A`, db)
	if !scalar.EqualBag(lateral) {
		t.Fatalf("scalar vs lateral bag mismatch:\n%s\n%s", scalar, lateral)
	}
	if scalar.EqualBag(leftJoin) {
		t.Fatalf("LEFT JOIN rewrite should differ under bags:\n%s\n%s", scalar, leftJoin)
	}
	if scalar.Card() != 2 || leftJoin.Card() != 1 {
		t.Fatalf("cards: scalar=%d leftJoin=%d", scalar.Card(), leftJoin.Card())
	}
}

func TestUnion(t *testing.T) {
	db := NewDB(
		relation.New("R", "A").Add(1).Add(2),
		relation.New("S", "A").Add(2).Add(3),
	)
	got := mustEval(t, "select R.A from R union select S.A from S", db)
	wantSet(t, got, relation.New("W", "A").Add(1).Add(2).Add(3))
	all := mustEval(t, "select R.A from R union all select S.A from S", db)
	if all.Card() != 4 {
		t.Fatalf("UNION ALL card = %d", all.Card())
	}
}

func TestUniqueSetQuery(t *testing.T) {
	// Fig 17 over the classic beers instance: d1 and d2 like the same
	// set; d3 likes a unique set.
	db := NewDB(relation.New("Likes", "drinker", "beer").
		Add("d1", "b1").Add("d1", "b2").
		Add("d2", "b1").Add("d2", "b2").
		Add("d3", "b1"))
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
	got := mustEval(t, src, db)
	wantSet(t, got, relation.New("W", "drinker").Add("d3"))
}

func TestBooleanExistsAsScalar(t *testing.T) {
	// Fig 9a: select exists(...) returns a unary boolean relation.
	db := NewDB(
		relation.New("R", "id", "q").Add(1, 2),
		relation.New("S", "id", "d").Add(1, "a").Add(1, "b"),
	)
	got := mustEval(t, `select exists (select 1 from R where R.q <=
		(select count(S.d) from S where S.id = R.id)) as b`, db)
	wantSet(t, got, relation.New("W", "b").Add(true))
}

func TestArithmeticInWhere(t *testing.T) {
	db := NewDB(
		relation.New("R", "A", "B").Add("x", 10).Add("y", 3),
		relation.New("S", "B").Add(4),
		relation.New("T", "B").Add(5),
	)
	got := mustEval(t, "select R.A from R, S, T where R.B - S.B > T.B", db)
	wantSet(t, got, relation.New("W", "A").Add("x"))
}

func TestThreeValuedWhere(t *testing.T) {
	db := NewDB(relation.New("R", "A", "B").Add(1, nil).Add(2, 5))
	got := mustEval(t, "select R.A from R where R.B > 0", db)
	wantSet(t, got, relation.New("W", "A").Add(2))
	// NOT over Unknown stays Unknown → filtered.
	got2 := mustEval(t, "select R.A from R where not (R.B > 0)", db)
	if got2.Card() != 0 {
		t.Fatalf("NOT Unknown must filter:\n%s", got2)
	}
}

func TestDuplicateOutputNames(t *testing.T) {
	db := NewDB(relation.New("R", "A").Add(1))
	got := mustEval(t, "select R.A, R.A from R", db)
	attrs := got.Attrs()
	if attrs[0] == attrs[1] {
		t.Fatalf("duplicate output columns not renamed: %v", attrs)
	}
}

func TestErrors(t *testing.T) {
	db := NewDB(relation.New("R", "A").Add(1).Add(2))
	cases := map[string]string{
		"select Z.A from Z": "unknown table",
		"select R.Z from R": "no column",
		"select sum(R.A) from R group by R.A having Q.A = 1":      "unknown",
		"select (select R.A from R) from R":                       "2 rows",
		"select R.A from R where R.A in (select R.A, R.A from R)": "columns",
	}
	for src, want := range cases {
		_, err := EvalString(src, db)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: got %v, want error containing %q", src, err, want)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	db := NewDB(relation.New("R", "A", "B").Add(1, 5).Add(1, 5).Add(1, 7))
	got := mustEval(t, "select R.A, count(distinct R.B) cd from R group by R.A", db)
	wantSet(t, got, relation.New("W", "A", "cd").Add(1, 2))
}

func TestGroupByNullsTogether(t *testing.T) {
	db := NewDB(relation.New("R", "A", "B").Add(nil, 1).Add(nil, 2).Add(1, 3))
	got := mustEval(t, "select R.A, sum(R.B) s from R group by R.A", db)
	wantSet(t, got, relation.New("W", "A", "s").Add(nil, 3).Add(1, 3))
}

func TestSumOverStringsErrors(t *testing.T) {
	db := NewDB(relation.New("R", "s").Add("x"))
	if _, err := EvalString("select sum(R.s) from R", db); err == nil ||
		!strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("want non-numeric error, got %v", err)
	}
}

func TestEvalIgnoresOrderBy(t *testing.T) {
	// ORDER BY is presentation, outside the relational core: Eval ignores it.
	db := NewDB(relation.New("R", "A").Add(2).Add(1))
	with, err := EvalString("select R.A from R order by A", db)
	if err != nil {
		t.Fatal(err)
	}
	without, err := EvalString("select R.A from R", db)
	if err != nil {
		t.Fatal(err)
	}
	if !with.EqualBag(without) {
		t.Fatal("Eval must ignore ORDER BY (relation content unchanged)")
	}
}
