package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// TestOnePredicateOneAnswer holds numeric = to one relation beyond 2^53
// (docs/INVARIANTS.md "= is one equivalence"): every spelling of one
// predicate — index probe, filter over an expression, bound parameter,
// hash join, IN probe, ARC — returns the same bag over R(A) = {2^53},
// S(B) = {2^53+1} and F(C) = {2^53 as a float}, and dedup keeps exactly
// the values = tells apart.
func TestOnePredicateOneAnswer(t *testing.T) {
	const big = 1 << 53
	db := Open(
		relation.New("R", "A").Add(value.Int(big)),
		relation.New("S", "B").Add(value.Int(big+1)),
		relation.New("F", "C").Add(value.Float(big)),
	)
	ctx := context.Background()
	type spelling struct {
		lang Lang
		src  string
		args []any
	}
	sql := func(src string, args ...any) spelling { return spelling{LangSQL, src, args} }
	arc := func(src string) spelling { return spelling{LangARC, src, nil} }
	for _, g := range []struct {
		name      string
		rows      int
		spellings []spelling
	}{
		{"R.A = int 2^53+1", 0, []spelling{
			sql("select R.A from R where R.A = 9007199254740993"),
			sql("select R.A from R where R.A + 0 = 9007199254740993"),
			sql("select R.A from R where R.A = $1", value.Int(big+1)),
			sql("select R.A from R where R.A + 0 = $1", value.Int(big+1)),
			arc("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A = 9007199254740993]}"),
		}},
		// float64(2^53+1) rounds to 2^53, which R.A equals exactly.
		{"R.A = float 2^53+1", 1, []spelling{
			sql("select R.A from R where R.A = $1", value.Float(big+1)),
			sql("select R.A from R where R.A + 0 = $1", value.Float(big+1)),
			sql("select R.A from R where R.A = 9007199254740993.0"),
		}},
		{"R.A = S.B", 0, []spelling{
			sql("select R.A from R, S where R.A = S.B"),
			sql("select R.A from R, S where R.A + 0 = S.B"),
			sql("select R.A from R where R.A in (select S.B from S)"),
			arc("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.A = s.B]}"),
		}},
		{"S.B = F.C", 0, []spelling{
			sql("select S.B from S, F where S.B = F.C"),
			sql("select S.B from S, F where S.B + 0 = F.C"),
			sql("select S.B from S where S.B in (select F.C from F)"),
			arc("{Q(B) | ∃s ∈ S, f ∈ F [Q.B = s.B ∧ s.B = f.C]}"),
		}},
		{"R.A = F.C", 1, []spelling{
			sql("select R.A from R, F where R.A = F.C"),
			sql("select R.A from R, F where R.A + 0 = F.C"),
			sql("select R.A from R where R.A in (select F.C from F)"),
			arc("{Q(A) | ∃r ∈ R, f ∈ F [Q.A = r.A ∧ r.A = f.C]}"),
		}},
	} {
		var first *relation.Relation
		for _, sp := range g.spellings {
			rel, err := db.QueryAll(ctx, sp.lang, sp.src, sp.args...)
			if err != nil {
				t.Fatalf("%s: %s: %v", g.name, sp.src, err)
			}
			rel = rel.Rename("X", []string{"c1"})
			if rel.Card() != g.rows {
				t.Errorf("%s: %s %v returned %d rows, want %d:\n%s", g.name, sp.src, sp.args, rel.Card(), g.rows, rel)
			}
			if first == nil {
				first = rel
			} else if !rel.EqualBag(first) {
				t.Errorf("%s: %s %v:\n%s\ndiffers from %s:\n%s", g.name, sp.src, sp.args, rel, g.spellings[0].src, first)
			}
		}
	}

	// Dedup identity is =: 2^53+1 and the float 2^53 stay two tuples, the
	// int and the float 2^60 are one. Every row of select distinct then
	// heads its own = class, and the classes partition T.
	tr := relation.New("T", "X").Add(value.Int(big + 1)).Add(value.Float(big)).
		Add(value.Int(1 << 60)).Add(value.Float(1 << 60))
	if got := tr.Distinct(); got != 3 {
		t.Fatalf("T holds %d distinct tuples, want 3:\n%s", got, tr)
	}
	db = Open(tr)
	distinct, err := db.QueryAll(ctx, LangSQL, "select distinct T.X from T")
	if err != nil {
		t.Fatal(err)
	}
	if distinct.Card() != 3 {
		t.Fatalf("select distinct returned %d rows, want 3:\n%s", distinct.Card(), distinct)
	}
	covered := 0
	distinct.Each(func(row relation.Tuple, _ int) {
		covered += countAll(t, db.QueryAll, LangSQL, "select T.X from T where T.X = $1", row[0])
	})
	if covered != tr.Card() {
		t.Fatalf("the = classes of select distinct's rows cover %d of T's %d rows", covered, tr.Card())
	}
}

// TestIntegerOverflowIsFloat: an int result beyond int64 is the float
// result (SQLite's rule), in every language and through both γs, never a
// wrapped int — R.A + 1 over MaxInt64 was MinInt64, and sum over
// {MaxInt64, 1} too.
func TestIntegerOverflowIsFloat(t *testing.T) {
	const maxI = math.MaxInt64
	db := Open(
		relation.New("R", "A").Add(value.Int(maxI)),
		relation.New("S", "A").Add(value.Int(maxI)).Add(value.Int(1)),
	)
	ctx := context.Background()
	for _, c := range []struct {
		lang Lang
		src  string
		args []any
		want float64
	}{
		{LangSQL, "select R.A + 1 s from R", nil, float64(maxI) + 1},
		{LangSQL, "select R.A * 2 s from R", nil, 2 * float64(maxI)},
		{LangSQL, "select R.A - $1 s from R", []any{value.Int(-1)}, float64(maxI) + 1},
		{LangSQL, "select sum(S.A) s from S", nil, float64(maxI) + 1},
		{LangARC, "{Q(s) | ∃r ∈ R [Q.s = r.A + 1]}", nil, float64(maxI) + 1},
		{LangARC, "{Q(s) | ∃r ∈ R [Q.s = r.A * 2]}", nil, 2 * float64(maxI)},
		{LangARC, "{Q(s) | ∃x ∈ S, γ ∅ [Q.s = sum(x.A)]}", nil, float64(maxI) + 1},
	} {
		rel, err := db.QueryAll(ctx, c.lang, c.src, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		rows := rel.Tuples()
		if len(rows) != 1 || rows[0][0].Kind() != value.KindFloat || rows[0][0].AsFloat() != c.want {
			t.Errorf("%s returned\n%s\nwant the one float %v", c.src, rel, c.want)
		}
	}
}
