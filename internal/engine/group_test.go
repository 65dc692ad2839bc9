package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestGroupSumOverStringFails: a γ over column keys fails a sum over a
// string with the message every evaluator gives, in SQL and in ARC, and
// both statements run on the planner's γ — over a relation never cloned,
// and over a version whose string is in its delta, above a base.
func TestGroupSumOverStringFails(t *testing.T) {
	g := relation.New("G", "A", "B")
	g.Add(1, 2)
	g.Add(1, "x")
	g.Add(2, 3)
	v := relation.New("G", "A", "B")
	v.Add(1, 2)
	v.Add(2, 3)
	v = v.Clone()
	v.Add(1, "x")
	for _, db := range []*DB{Open(g), Open(v)} {
		sumOverStringFails(t, db)
	}
}

func sumOverStringFails(t *testing.T, db *DB) {
	t.Helper()
	for _, q := range []struct {
		lang      Lang
		src, want string
	}{
		{LangSQL, "select G.A, sum(G.B) as sm from G group by G.A", "sum over non-numeric value 'x'"},
		{LangARC, "{Q(A, sm) | ∃r ∈ G, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}", "Q: sum over non-numeric value 'x'"},
	} {
		stmt, err := db.Prepare(q.lang, q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.lang, err)
		}
		if plan, err := stmt.Explain(); err != nil || !strings.Contains(plan, "GroupAggregate") ||
			strings.Contains(plan, "environment enumeration") {
			t.Fatalf("%s: not on the planner's γ (%v):\n%s", q.lang, err, plan)
		}
		_, err = stmt.QueryAll(context.Background())
		if err == nil || err.Error() != q.want {
			t.Fatalf("%s: %v, want %s", q.lang, err, q.want)
		}
	}
}
