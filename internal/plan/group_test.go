package plan

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// groupNodes lists the γ operators of the plan tree below n.
func groupNodes(n Node) []*groupNode {
	var gs []*groupNode
	if g, ok := n.(*groupNode); ok {
		gs = append(gs, g)
	}
	kids, _ := inputs(n)
	for _, k := range kids {
		gs = append(gs, groupNodes(k)...)
	}
	return gs
}

// projectAll makes every γ of p project its input rows, as one over a
// computed key or argument does.
func projectAll(p *Plan) {
	for _, g := range groupNodes(p.root) {
		for i := range g.keys {
			g.keys[i].col = 0
		}
		for i := range g.aggs {
			g.aggs[i].col = 0
		}
		g.layout()
	}
}

// groupTestDB holds R(A, B) and S(B, C) with NULLs in every column, rows
// of weight 2 and 3, a float key equal to an int one, and a string in
// Bad.B that no sum can add.
func groupTestDB() map[string]*relation.Relation {
	null, i, f := value.Null(), value.Int, value.Float
	r := relation.New("R", "A", "B")
	for _, t := range []relation.Tuple{{i(1), i(10)}, {i(1), i(20)}, {f(1), i(20)}, {i(2), null}, {null, i(5)}, {null, null}} {
		r.Insert(t)
	}
	r.InsertMult(relation.Tuple{i(2), i(30)}, 3)
	r.InsertMult(relation.Tuple{null, i(5)}, 2)
	s := relation.New("S", "B", "C")
	for _, t := range []relation.Tuple{{i(10), i(7)}, {i(20), i(7)}, {i(20), null}, {i(30), i(8)}, {null, i(9)}} {
		s.Insert(t)
	}
	s.InsertMult(relation.Tuple{i(30), i(9)}, 2)
	bad := relation.New("Bad", "A", "B")
	bad.Add(1, 2)
	bad.Add(1, "x")
	return map[string]*relation.Relation{"R": r, "S": s, "Bad": bad}
}

// TestGroupReadsColumnsInPlace pins which γ reads its input rows in
// place (every key and aggregate argument a column) and that it answers
// what the same γ answers projecting its input first: the same groups
// over NULL keys, bag weights and count(distinct …), in the same order.
func TestGroupReadsColumnsInPlace(t *testing.T) {
	db := groupTestDB()
	cases := []struct {
		src     string
		inPlace bool
	}{
		{"select R.A, count(*) n from R group by R.A", true},
		{"select R.A, sum(R.B) s, avg(R.B) a, min(R.B) mn, max(R.B) mx, count(R.B) c, count(distinct R.B) d from R group by R.A", true},
		{"select R.B, R.A, count(*) n from R group by R.A, R.B", true},
		{"select r.A, count(distinct s.C) d, sum(s.C) sm from R r, S s where r.B = s.B group by r.A", true},
		{"select R.A, count(*) n from R group by R.A having count(*) >= 2", true},
		{"select count(*) n, sum(R.B) s, count(distinct R.A) d from R", true},
		{"select R.A + 1, count(*) n from R group by R.A + 1", false},
		{"select R.A, sum(R.B * 2) s from R group by R.A", false},
	}
	for _, c := range cases {
		p, err := Compile(sql.MustParse(c.src), db)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		gs := groupNodes(p.root)
		if len(gs) != 1 || gs[0].inPlace != c.inPlace {
			t.Fatalf("%s: γ in place %v, want %v", c.src, len(gs) == 1 && gs[0].inPlace, c.inPlace)
		}
		got := rendered(t, p, db, c.src, nil)
		projectAll(p)
		if want := rendered(t, p, db, c.src, nil); got != want {
			t.Fatalf("%s: in place\n%s\nprojected\n%s", c.src, got, want)
		}
	}
}

// TestGroupInPlaceSumOverString: a sum or avg over a string fails the
// execution with the message the projecting γ gives, also when γ reads
// its input in place.
func TestGroupInPlaceSumOverString(t *testing.T) {
	db := groupTestDB()
	for _, src := range []string{
		"select Bad.A, sum(Bad.B) s from Bad group by Bad.A",
		"select Bad.A, count(*) n, avg(Bad.B) a from Bad group by Bad.A",
	} {
		p, err := Compile(sql.MustParse(src), db)
		if err != nil {
			t.Fatal(err)
		}
		if !groupNodes(p.root)[0].inPlace {
			t.Fatalf("%s: γ projects its input", src)
		}
		_, inPlace := p.ExecuteWith(nil, nil)
		projectAll(p)
		_, projected := p.ExecuteWith(nil, nil)
		if inPlace == nil || projected == nil || inPlace.Error() != projected.Error() {
			t.Fatalf("%s: in place %v, projected %v; want one error", src, inPlace, projected)
		}
		t.Logf("%s: %v", src, inPlace)
	}
}
