package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
)

// hintData is P, the chain 0 → 1 → … → 200; R(A, B), each A of 0…149
// with B = 2(A mod 25) and, 150 rows later, the B after it; S(B, C),
// C = 0 for a B of 0 or 1 modulo 4 and B itself otherwise, so that about
// half the A values join S twice on C = 0, far apart; G(A, B), five rows for each of 60 A values; and
// K(v), empty, which an ARC or Datalog execution binds (In).
func hintData() []*relation.Relation {
	p := relation.New("P", "s", "t")
	for i := 0; i < 200; i++ {
		p.Add(i, i+1)
	}
	r, s, g := relation.New("R", "A", "B"), relation.New("S", "B", "C"), relation.New("G", "A", "B")
	for i := 0; i < 300; i++ {
		r.Add(i%150, i%150%25*2+i/150)
	}
	for b := 0; b < 50; b++ {
		c := b
		if b%4 < 2 {
			c = 0
		}
		s.Add(b, c)
	}
	for a := 0; a < 60; a++ {
		for j := 0; j < 5; j++ {
			g.Add(a, 10*a+j)
		}
	}
	return []*relation.Relation{p, r, s, g, relation.New("K", "v")}
}

// hintQuery is one statement of TestSizeHintsChangeCapacityOnly with its
// arguments for a large and a small run: a SQL statement's parameter, an
// ARC or Datalog statement's binding of K(v).
type hintQuery struct {
	name       string
	lang       Lang
	src        string
	big, small []any
}

// keys binds K(v) to the given values.
func keys(vs ...int) []any {
	k := relation.New("K", "v")
	for _, v := range vs {
		k.Add(v)
	}
	return []any{In("K", k)}
}

func hintQueries() []hintQuery {
	var all []int
	for a := 0; a < 60; a++ {
		all = append(all, a)
	}
	return []hintQuery{
		{"closure", LangSQL, "with recursive A (s, t) as (select P.s, P.t from P where P.s = $1 union " +
			"select A.s, P.t from A, P where A.t = P.s) select A.s, A.t from A", []any{0}, []any{190}},
		{"closure", LangARC, "{A(s, t) | ∃k ∈ K, p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s = k.v] ∨ " +
			"∃a2 ∈ A, p ∈ P [A.s = a2.s ∧ a2.t = p.s ∧ A.t = p.t]}", keys(0), keys(190)},
		{"closure", LangDatalog, "A(x,y) :- K(x), P(x,y). A(x,y) :- A(x,z), P(z,y).", keys(0), keys(190)},
		// Six A values share each B, and each node has two edges: the
		// walk's rows carry multiplicities of 6 and up.
		{"bag walk", LangSQL, "with recursive W (n, d) as (select R.B, 1 from R union all " +
			"select R.B, W.d + 1 from W, R where W.n = R.A and W.d < $1) select W.n, W.d from W", []any{4}, []any{1}},
		{"distinct join", LangSQL, "select distinct R.A from R, S where R.B = S.B and S.C = $1", []any{0}, []any{3}},
		{"distinct join", LangARC, "{Q(A) | ∃r ∈ R, s ∈ S, k ∈ K [Q.A = r.A ∧ r.B = s.B ∧ s.C = k.v]}", keys(0), keys(3)},
		{"distinct join", LangDatalog, "Q(a) :- R(a,b), S(b,c), K(c).", keys(0), keys(3)},
		{"grouped sum", LangSQL, "select G.A, sum(G.B) as sm from G where G.A < $1 group by G.A", []any{60}, []any{3}},
		{"grouped sum", LangARC, "{Q(A, sm) | ∃r ∈ G, k ∈ K, γ r.A [Q.A = r.A ∧ r.A = k.v ∧ Q.sm = sum(r.B)]}", keys(all...), keys(0, 1, 2)},
		{"grouped sum", LangDatalog, "Q(a,sm) :- K(a), sm = sum b : {G(a,b)}.", keys(all...), keys(0, 1, 2)},
	}
}

// TestSizeHintsChangeCapacityOnly holds the size hints of prepared plans
// (docs/INVARIANTS.md, "Size hints") to capacity: one prepared statement
// per language and shape — a closure from a start node, a DISTINCT join,
// a grouped sum — runs large, small, large, large through its arguments,
// so that runs are presized by a run of the other size and of their own,
// and returns what a statement prepared afresh on another database
// returns. Then eight
// goroutines run the held statements at once, in different orders.
func TestSizeHintsChangeCapacityOnly(t *testing.T) {
	ctx := context.Background()
	open := func() *DB { return Open(hintData()...).SetConventions(convention.SetLogic()) }
	db := open()
	type held struct {
		hintQuery
		stmt *Stmt
		want map[bool]*relation.Relation // by run size: large
	}
	var stmts []held
	for _, q := range hintQueries() {
		stmt, err := db.Prepare(q.lang, q.src)
		if err != nil {
			t.Fatalf("%s %s: %v", q.lang, q.name, err)
		}
		if plan, err := stmt.Explain(); err != nil || strings.Contains(plan, "environment enumeration") || q.lang == LangSQL && stmt.cur.Load().plan == nil {
			t.Fatalf("%s %s: not planned (%v):\n%s", q.lang, q.name, err, plan)
		}
		h := held{hintQuery: q, stmt: stmt, want: map[bool]*relation.Relation{}}
		for _, large := range []bool{true, false} {
			fresh, err := open().Prepare(q.lang, q.src)
			if err != nil {
				t.Fatal(err)
			}
			if h.want[large], err = fresh.QueryAll(ctx, q.args(large)...); err != nil {
				t.Fatalf("%s %s: %v", q.lang, q.name, err)
			}
		}
		if h.want[true].Card() <= 2*h.want[false].Card() {
			t.Fatalf("%s %s: %d rows large, %d small: too close to tell", q.lang, q.name, h.want[true].Card(), h.want[false].Card())
		}
		if q.name == "bag walk" && h.want[false].Card() == h.want[false].Distinct() {
			t.Fatalf("%s %s: no row repeats", q.lang, q.name)
		}
		stmts = append(stmts, h)
	}
	run := func(h held, large bool) error {
		got, err := h.stmt.QueryAll(ctx, h.args(large)...)
		if err != nil {
			return err
		}
		if !got.EqualBag(h.want[large]) {
			return fmt.Errorf("%s %s (large %v): %d rows, want %d", h.lang, h.name, large, got.Card(), h.want[large].Card())
		}
		return nil
	}
	for _, h := range stmts {
		for _, large := range []bool{true, false, true, true} {
			if err := run(h, large); err != nil {
				t.Error(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				h := stmts[(g+i)%len(stmts)]
				if err := run(h, (g+i)%2 == 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// args is the query's arguments for a large or a small run.
func (q hintQuery) args(large bool) []any {
	if large {
		return q.big
	}
	return q.small
}
