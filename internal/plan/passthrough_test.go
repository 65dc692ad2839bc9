package plan

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// forceProjection makes every Project of the tree below n compute its
// outputs, as one that reorders or drops a column does.
func forceProjection(n Node) {
	if pn, ok := n.(*projectNode); ok {
		pn.srcCols, pn.copied = nil, nil
	}
	kids, _ := inputs(n)
	for _, k := range kids {
		forceProjection(k)
	}
}

// TestIdentityProjectPassesRowsThrough pins which Project passes its
// input's rows on as they are — exactly the input's columns, in order,
// as wide as the rows the input yields — and that it streams what the
// same Project computing its outputs streams, over a CTE scan too. A
// Project that reorders or drops a column, or reads a join, still
// projects, and so does one compiled against R(A, B) and run on an R
// that has grown a column.
func TestIdentityProjectPassesRowsThrough(t *testing.T) {
	db := groupTestDB()
	cases := []struct {
		src     string
		through bool
	}{
		{"select R.A, R.B from R", true},
		{"select R.A, R.B from R where R.A = 1", true},
		{"select R.A, R.B from R where R.A >= 1 and R.A < 3", true},
		{"select R.A, R.B from R where R.A + 1 > R.B", true},
		{"select R.A, count(*) n from R group by R.A", true}, // γ's columns, in order
		{"select R.A, count(*) n from R group by R.A having count(*) > 1", true},
		{"select count(*) n, R.A from R group by R.A", false},
		{"select R.A, count(*) + 0 n from R group by R.A", false},
		{"select R.B, R.A from R", false},
		{"select R.A from R", false},
		{"select R.A, R.A from R", false},
		{"select R.A + 0, R.B from R", false},
		{"select r.A, r.B, s.B, s.C from R r, S s where r.B = s.B", false},
		{"with recursive tc(s, t) as (select R.A, R.B from R union select tc.s, R.B from tc, R where tc.t = R.A) select tc.s, tc.t from tc", true},
		{"with recursive tc(s, t) as (select R.A, R.B from R union select tc.s, R.B from tc, R where tc.t = R.A) select tc.t, tc.s from tc", false},
	}
	for _, c := range cases {
		p, err := Compile(sql.MustParse(c.src), db)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		root := p.root
		if w, ok := root.(*withNode); ok {
			root = w.body
		}
		pn, ok := root.(*projectNode)
		if !ok {
			t.Fatalf("%s: no Project at the root:\n%s", c.src, p.Explain())
		}
		if got := pn.passesThrough(&runCtx{rels: db}); got != c.through {
			t.Errorf("%s: passes its rows through %v, want %v", c.src, got, c.through)
		}
		got, explain := rendered(t, p, db, c.src, nil), p.Explain()
		forceProjection(p.root)
		if want := rendered(t, p, db, c.src, nil); got != want {
			t.Errorf("%s: passed through\n%s\nprojected\n%s", c.src, got, want)
		}
		if p.Explain() != explain {
			t.Errorf("%s: EXPLAIN reads\n%s\npassed through, and\n%s\nprojected", c.src, explain, p.Explain())
		}
	}

	// ARC's Project records the columns it copies.
	for _, c := range []struct {
		cols    []int
		through bool
	}{{[]int{0, 1}, true}, {[]int{1, 0}, false}, {[]int{0}, false}} {
		exprs := make([]Expr, len(c.cols))
		names := make([]string, len(c.cols))
		for i, col := range c.cols {
			exprs[i], names[i] = Column(col, "r.col"), "x"+string(rune('0'+i))
		}
		pn := Project(ScanLeaf("R", "r", []string{"A", "B"}, nil), exprs, names).(*projectNode)
		if got := pn.passesThrough(&runCtx{rels: db}); got != c.through {
			t.Errorf("ARC Project of columns %v passes its rows through %v, want %v", c.cols, got, c.through)
		}
	}

	// The width compared is the rows' own: over an R that has grown a
	// column since the plan was compiled, the Project keeps two.
	p, err := Compile(sql.MustParse("select R.A, R.B from R where R.A >= 1"), db)
	if err != nil {
		t.Fatal(err)
	}
	wide := relation.New("R", "A", "B", "C")
	wide.Add(1, 2, 3)
	wide.Add(2, 3, 4)
	rels := map[string]*relation.Relation{"R": wide}
	if p.root.(*projectNode).passesThrough(&runCtx{rels: rels}) {
		t.Fatal("a Project of two columns passes three-column rows through")
	}
	seq, errFn := p.StreamOn(rels, nil, nil, nil)
	n := 0
	for tup := range seq {
		if n++; len(tup) != 2 {
			t.Fatalf("row %v from a two-column Project", tup)
		}
	}
	if err := errFn(); err != nil || n != 2 {
		t.Fatalf("%d rows, %v", n, err)
	}
}
