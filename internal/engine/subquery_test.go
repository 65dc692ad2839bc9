package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sqleval"
	"repro/internal/value"
)

// subqueryInners are the contents of S(B, C) the subquery matrix reads
// against subqueryR: no row at all, a NULL element, only elements of
// another class than R.A's, and elements that match some rows and miss
// others.
var subqueryInners = []struct {
	name string
	rows [][2]any
}{
	{"empty", nil},
	{"null", [][2]any{{10, 1}, {20, nil}, {40, 5}}},
	{"other class", [][2]any{{10, "one"}, {20, "two"}}},
	{"match", [][2]any{{10, 1}, {20, 2}, {20, 9}, {40, 7}}},
}

// subqueryR is the outer relation R(A, B): rows whose A matches an
// element, misses every element, is NULL (a NULL probe value), and a row
// whose correlation column B is NULL.
func subqueryR() *relation.Relation {
	return relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(nil, 20).Add(3, nil).Add(4, 40)
}

func subqueryS(rows [][2]any) *relation.Relation {
	s := relation.New("S", "B", "C")
	for _, r := range rows {
		s.Add(r[0], r[1])
	}
	return s
}

// subqueryConds are WHERE conditions over R r for every subquery
// operator and kind of correlation; %s is "" or "not ".
var subqueryConds = []string{
	// Uncorrelated.
	"r.A %sin (select S.C from S)",
	"%sexists (select 1 from S where S.C = 2)",
	// Equality-correlated.
	"r.A %sin (select S.C from S where S.B = r.B)",
	"%sexists (select 1 from S where S.B = r.B and S.C = r.A)",
	// Non-equality-correlated, and correlated through a side that reads
	// both scopes.
	"r.A %sin (select S.C from S where S.B < r.B)",
	"%sexists (select 1 from S where S.C < r.A)",
	"%sexists (select 1 from S where S.B - r.B = 0 and S.C = r.A)",
	// Keyed on an expression side: the tested row's or the subquery's.
	"r.B + 0 %sin (select S.B from S)",
	"r.B %sin (select S.B + 0 from S where S.C = r.A)",
	"%sexists (select 1 from S where S.B = r.B + 10)",
	// Over a CTE, correlated and not.
	"r.A %sin (select X.C from X where X.B = r.B)",
	"%sexists (select 1 from X where X.B = r.B and X.C = r.A)",
	"r.A %sin (select X.C from X)",
}

// subqueryQuery is the query form of cond: it reads X when cond does.
func subqueryQuery(cond string) string {
	q := "select r.A, r.B from R r where " + cond
	if strings.Contains(cond, " X") {
		q = "with X as (select S.B, S.C from S) " + q
	}
	return q
}

// mustPlan prepares src and fails unless it compiled onto internal/plan.
func mustPlan(t *testing.T, db *DB, src string) *Stmt {
	t.Helper()
	stmt, err := db.Prepare(LangSQL, src)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	if stmt.cur.Load().plan == nil {
		t.Fatalf("%q fell back to the reference evaluator", src)
	}
	return stmt
}

// streamAll drains one execution of a prepared query through its cursor.
func streamAll(t *testing.T, stmt *Stmt) *relation.Relation {
	t.Helper()
	rows, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatalf("Query(%q): %v", stmt.Source(), err)
	}
	got := relation.New("result", stmt.Columns()...)
	for rows.Next() {
		got.Insert(relation.Tuple(rows.Values()))
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Query(%q): %v", stmt.Source(), err)
	}
	return got
}

// TestSubqueryThreeValuedMatrix holds every [NOT] EXISTS and [NOT] IN
// conjunct — uncorrelated, equality- and non-equality-correlated, over a
// CTE — to the reference's three-valued answer, as bags, on an empty
// inner scope, one with a NULL element, one whose elements are of another
// class, and one that matches some rows: streamed through a cursor
// (StreamOn), and as the matching rows of a DELETE (ExecuteOn). One
// prepared statement runs on every inner, so an answer kept past its
// execution shows.
func TestSubqueryThreeValuedMatrix(t *testing.T) {
	for _, tmpl := range subqueryConds {
		for _, neg := range []string{"", "not "} {
			cond := fmt.Sprintf(tmpl, neg)
			db := Open(subqueryR(), subqueryS(nil))
			query := mustPlan(t, db, subqueryQuery(cond))
			for _, inner := range subqueryInners {
				s := subqueryS(inner.rows)
				db.Register(s)
				ref := sqleval.DB{"R": subqueryR(), "S": s}
				want, err := sqleval.EvalString(subqueryQuery(cond), ref)
				if err != nil {
					t.Fatalf("%s, %s: reference: %v", cond, inner.name, err)
				}
				if got := streamAll(t, query); !got.EqualBag(want) {
					t.Errorf("%s, %s inner:\nreference:\n%s\nstreamed:\n%s", cond, inner.name, want, got)
				}
			}
			// DELETE removes exactly the reference's matching rows.
			if strings.Contains(cond, " X") {
				continue
			}
			ref := sqleval.DB{"R": subqueryR(), "S": db.Relation("S")}
			matched, err := sqleval.EvalString(subqueryQuery(cond), ref)
			if err != nil {
				t.Fatal(err)
			}
			del := mustPlan(t, db, "delete from R r where "+cond)
			if _, err := del.Exec(context.Background()); err != nil {
				t.Fatalf("delete where %s: %v", cond, err)
			}
			want := subqueryR()
			want.RemoveKeys(matched.Tuples())
			if got := db.Relation("R"); !got.EqualBag(want) {
				t.Errorf("delete where %s:\nreference:\n%s\ndeleted to:\n%s", cond, want, got)
			}
		}
	}
}

// TestSubqueryInRecursiveStep holds subquery conjuncts of a WITH
// RECURSIVE step, which fixpoint.Run re-runs every round, to the
// reference's working-table iteration: a correlated NOT EXISTS over a
// stored relation, NOT IN over a subquery with a NULL element, EXISTS
// over the round's delta — uncorrelated, keyed, and correlated through an
// expression — and EXISTS over a CTE nested in the step, whose answers
// change from round to round.
func TestSubqueryInRecursiveStep(t *testing.T) {
	e := relation.New("E", "x", "y")
	for i := 1; i < 8; i++ {
		e.Add(i, i+1)
	}
	n := relation.New("N", "v").Add(5)
	nn := relation.New("NN", "v").Add(6).Add(nil)
	// A CTE nested in the step is materialized again every round: a probe
	// of it reads this round's relation, not the first round's.
	steps := []string{"select tc.x, D.y from tc, (with Y as (select tc.x, tc.y from tc) " +
		"select E.x, E.y from E where exists (select 1 from Y where Y.x = E.y)) D where tc.y = D.x"}
	for _, cond := range []string{
		"not exists (select 1 from N where N.v = E.y)",
		"E.y not in (select NN.v from NN)",
		"E.y in (select NN.v from NN)",
		"exists (select 1 from tc t2 where t2.y = 3)",
		"exists (select 1 from tc t2 where t2.x = E.y)",
		"exists (select 1 from tc t2 where t2.x + 0 = E.y)",
	} {
		steps = append(steps, "select tc.x, E.y from tc, E where tc.y = E.x and "+cond)
	}
	for _, step := range steps {
		src := "with recursive tc(x, y) as (select E.x, E.y from E union " + step + ") select tc.x, tc.y from tc"
		cond := step
		db := Open(e, n, nn)
		stmt := mustPlan(t, db, src)
		want, err := sqleval.EvalString(src, sqleval.DB{"E": e, "N": n, "NN": nn})
		if err != nil {
			t.Fatalf("%s: reference: %v", cond, err)
		}
		for run := 0; run < 2; run++ {
			if got := streamAll(t, stmt); !got.EqualBag(want) {
				t.Errorf("step with %s, run %d:\nreference:\n%s\nplanned:\n%s", cond, run, want, got)
			}
		}
	}
}

// TestExpressionKeysHash pins that an equality between a side over the
// tested row and one over the subquery's FROM is a hash key whatever
// shape the sides have, so a test looks its key up rather than scanning
// every S row: the keyed join appears, and no cross join.
func TestExpressionKeysHash(t *testing.T) {
	db := Open(subqueryR(), subqueryS(subqueryInners[3].rows))
	for _, c := range []struct{ cond, key string }{
		{"r.A + 1 in (select S.B from S)", "(r.A + 1) = S.B"},
		{"r.A in (select S.B + 0 from S)", "r.A = (S.B + 0)"},
		{"exists (select 1 from S where S.B = r.B + 1)", "S.B = (r.B + 1)"},
		{"r.A not in (select S.C from S where S.B + 0 = r.B)", "(S.B + 0) = r.B, r.A = S.C"},
	} {
		text, err := mustPlan(t, db, subqueryQuery(c.cond)).ExplainAnalyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "HashJoin INNER ("+c.key+")") || strings.Contains(text, "CrossJoin") {
			t.Errorf("%s is not keyed on %s:\n%s", c.cond, c.key, text)
		}
	}
}

// TestProbeAnswersKeptByValues pins that an answer a probe keeps for the
// values of the columns its inner scope reads serves only a row with the
// same values, of the same kinds, in every one of those columns: rows
// that agree on R.A but not on R.B get their own answers, and so do 3
// and 3.0, which are equal, but 3 / 2 is 1 and 3.0 / 2 is 1.5.
func TestProbeAnswersKeptByValues(t *testing.T) {
	r := relation.New("R", "A", "B", "I").Add(1, 10, 1).Add(1, 20, 2).Add(3, 2, 3).Add(3.0, 2, 4).Add(3, 2, 5)
	s := relation.New("S", "B", "C").Add(10, 1).Add(1, 2)
	for _, c := range []struct {
		src  string
		rows int
	}{
		{"select R.I from R where exists (select 1 from S where S.B = R.B and S.C = R.A)", 1},
		{"select R.I from R where exists (select 1 from S where S.B = R.A / R.B)", 2},
	} {
		src := c.src
		got := streamAll(t, mustPlan(t, Open(r, s), src))
		want, err := sqleval.EvalString(src, sqleval.DB{"R": r, "S": s})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(want) || got.Card() != c.rows {
			t.Errorf("%s: reference:\n%s\nplanned:\n%s", src, want, got)
		}
	}
}

// TestNonEqualityCorrelationPlans pins the shape that used to fall back:
// an EXISTS correlated through an inequality compiles, and ANALYZE shows
// it as an existence probe of each outer row.
func TestNonEqualityCorrelationPlans(t *testing.T) {
	db := Open(relation.New("R", "A").Add(1).Add(3), relation.New("S", "C").Add(2).Add(value.Null()))
	stmt := mustPlan(t, db, "select R.A from R where exists (select 1 from S where S.C < R.A)")
	got := streamAll(t, stmt)
	if want := relation.New("W", "A").Add(3); !got.EqualBag(want) {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	text, err := stmt.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "SemiProbe EXISTS by(R.A) (probes=2 matches=1)") || strings.Contains(text, "reference evaluator") {
		t.Fatalf("ANALYZE does not show the probe:\n%s", text)
	}
}
