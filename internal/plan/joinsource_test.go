package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// A join builds on a stored relation by probing that relation's index
// (exec.IndexBuild), and on anything else by draining it into a hash
// table (exec.HashTable). joinPairs spells each join both ways: over J2
// itself, and over a derived table that reads J2 and so is drained. The
// two must stream the same rows, with the same multiplicities, in the
// same order.
var joinPairs = []struct{ index, table string }{
	{
		"select J1.X, J1.V, J2.Y, J2.W from J1, J2 where J1.X = J2.Y",
		"select J1.X, J1.V, J2.Y, J2.W from J1, (select J2.Y, J2.W from J2) J2 where J1.X = J2.Y",
	},
	{ // two key columns
		"select J1.X, J2.W from J1, J2 where J1.X = J2.Y and J1.V = J2.W",
		"select J1.X, J2.W from J1, (select J2.Y, J2.W from J2) J2 where J1.X = J2.Y and J1.V = J2.W",
	},
	{ // a probe pushed down onto the build scan, bound per execution
		"select J1.X, J2.W from J1, J2 where J1.X = J2.Y and J2.W = $1",
		"select J1.X, J2.W from J1, (select J2.Y, J2.W from J2 where J2.W = $1) J2 where J1.X = J2.Y",
	},
	{ // null extension, and a residual that rejects some matches
		"select J1.X, J1.V, J2.W from J1 left join J2 on J1.X = J2.Y and J2.W <> J1.V",
		"select J1.X, J1.V, J2.W from J1 left join (select J2.Y, J2.W from J2) J2 on J1.X = J2.Y and J2.W <> J1.V",
	},
	{ // the recursive step builds its left side, J2, and streams the delta
		"with recursive A (s, t) as (select J2.Y, J2.W from J2 union select J2.Y, A.t from J2, A where J2.W = A.s) select A.s, A.t from A",
		"with recursive A (s, t) as (select J2.Y, J2.W from J2 union select J2.Y, A.t from (select J2.Y, J2.W from J2) J2, A where J2.W = A.s) select A.s, A.t from A",
	},
}

// streamed renders one execution's stream: each row in order, with its
// values' kinds and its multiplicity.
func streamed(t *testing.T, db map[string]*relation.Relation, src string, params []value.Value) string {
	t.Helper()
	p, err := CompileSchema(sql.MustParse(src), db)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return rendered(t, p, db, src, params)
}

// rendered is streamed for the compiled plan p of src.
func rendered(t *testing.T, p *Plan, db map[string]*relation.Relation, src string, params []value.Value) string {
	t.Helper()
	var b strings.Builder
	seq, errFn := p.StreamOn(db, params[:p.NumParams()], nil, nil)
	for tup, m := range seq {
		for _, v := range tup {
			fmt.Fprintf(&b, "%v:%v ", v.Kind(), v)
		}
		fmt.Fprintf(&b, "×%d\n", m)
	}
	if err := errFn(); err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return b.String()
}

// checkJoinSources fails unless every pair of joinPairs streams alike over
// db with the parameter param, and only the index spellings probe J2.
func checkJoinSources(t *testing.T, db map[string]*relation.Relation, param value.Value) {
	t.Helper()
	params := []value.Value{param}
	for _, pair := range joinPairs {
		idx, err := CompileSchema(sql.MustParse(pair.index), db)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := CompileSchema(sql.MustParse(pair.table), db)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(idx.Explain(), "index(J2)") || strings.Contains(tbl.Explain(), "index(J2)") {
			t.Fatalf("want only the first to probe J2's index:\n%s\n%s", idx.Explain(), tbl.Explain())
		}
		want := streamed(t, db, pair.table, params)
		if got := streamed(t, db, pair.index, params); got != want {
			t.Errorf("%s ($1 = %v)\nJ1:\n%sJ2:\n%sindex build:\n%s\nhash table:\n%s",
				pair.index, param, db["J1"], db["J2"], got, want)
		}
	}
}

// joinDB returns J1(X, V) and J2(Y, W) holding the given rows.
func joinDB(j1, j2 [][2]any) map[string]*relation.Relation {
	r1, r2 := relation.New("J1", "X", "V"), relation.New("J2", "Y", "W")
	for _, r := range j1 {
		r1.Add(r[0], r[1])
	}
	for _, r := range j2 {
		r2.Add(r[0], r[1])
	}
	return map[string]*relation.Relation{"J1": r1, "J2": r2}
}

func TestJoinBuildSourcesAgree(t *testing.T) {
	// committed is J2 as a commit leaves it: a shared base with a dead
	// row, then a delta that re-adds a base tuple (a multiplicity bump
	// that moves it) and holds new ones.
	committed := func() map[string]*relation.Relation {
		db := joinDB([][2]any{{1, 1}, {2, 2}, {3, 3}, {nil, 1}}, [][2]any{{1, 1}, {2, 2}, {2, 3}, {3, 1}, {1, 2}})
		j2 := db["J2"].Clone()
		j2.RemoveKeys([]relation.Tuple{{value.Int(2), value.Int(2)}})
		j2.Add(3, 1).Add(2, 1).Add(1, 3).Add(value.Float(2), 2)
		db["J2"] = j2
		return db
	}
	for _, c := range []struct {
		name  string
		db    map[string]*relation.Relation
		param value.Value
	}{
		{"NULL keys", joinDB([][2]any{{nil, 1}, {1, nil}, {1, 1}}, [][2]any{{nil, 1}, {1, nil}, {nil, nil}, {1, 1}}), value.Int(1)},
		{"2 and 2.0", joinDB([][2]any{{2, 2}, {value.Float(2), 2}, {3, value.Float(3)}}, [][2]any{{value.Float(2), 2}, {2, value.Float(2)}, {3, 3}}), value.Float(2)},
		{"bag multiplicities", joinDB([][2]any{{1, 1}, {1, 1}, {2, 1}}, [][2]any{{1, 1}, {1, 1}, {1, 1}, {2, 2}, {1, 2}}), value.Int(1)},
		{"base, delta and dead rows", committed(), value.Int(1)},
		{"left join null extension", joinDB([][2]any{{1, 1}, {4, 4}, {nil, nil}}, [][2]any{{1, 1}, {1, 2}}), value.Int(2)},
		{"NULL parameter on a pushed-down probe", joinDB([][2]any{{1, 1}, {2, 2}}, [][2]any{{1, nil}, {2, 2}}), value.Null()},
	} {
		t.Run(c.name, func(t *testing.T) { checkJoinSources(t, c.db, c.param) })
	}
}

// FuzzJoinBuildSources holds the index-probe join to the hash-table join
// over generated instances: each pair of bytes adds a row to J1 or J2
// from a domain with NULL, 2 and 2.0, strings and repeats, removes one,
// or commits J2 (Clone, so later writes land in a delta over a base).
func FuzzJoinBuildSources(f *testing.F) {
	f.Add([]byte{0, 0x11, 1, 0x11, 1, 0x12, 2, 0, 1, 0x21, 3, 0x11, 1, 0x33}, byte(1))
	f.Add([]byte{0, 0x00, 0, 0x22, 1, 0x02, 1, 0x20, 1, 0x22, 2, 0, 1, 0x52, 1, 0x25}, byte(0))
	f.Add([]byte{1, 0x12, 1, 0x23, 1, 0x31, 1, 0x14, 0, 0x11, 0, 0x44, 2, 0, 3, 0x12, 1, 0x41}, byte(5))
	domain := []value.Value{
		value.Null(), value.Int(1), value.Int(2), value.Float(2), value.Int(3), value.Str("a"), value.Float(1.5), value.Int(4),
	}
	f.Fuzz(func(t *testing.T, ops []byte, param byte) {
		if len(ops) > 64 {
			return
		}
		db := joinDB(nil, nil)
		for i := 0; i+1 < len(ops); i += 2 {
			row := relation.Tuple{domain[ops[i+1]>>4%8], domain[ops[i+1]&7]}
			switch ops[i] % 4 {
			case 0:
				db["J1"].Insert(row)
			case 1:
				db["J2"].Insert(row)
			case 2:
				db["J2"] = db["J2"].Clone()
			case 3:
				db["J2"].RemoveKeys([]relation.Tuple{row})
			}
		}
		checkJoinSources(t, db, domain[param%8])
	})
}
