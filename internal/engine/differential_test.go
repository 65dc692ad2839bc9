package engine

import (
	"context"
	"testing"

	"repro/internal/qgen"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/sqleval"
	"repro/internal/value"
	"repro/internal/workload"
)

// liftLits rewrites q in place, replacing every integer literal used as
// a comparison operand with the next $n placeholder, and returns the
// argument list the rewritten query binds. This turns the qgen corpora
// into parameterized prepared statements whose results must not change.
func liftLits(q sql.Query) []any {
	var args []any
	sql.Walk(q, nil, func(e sql.Expr) {
		cmp, ok := e.(*sql.Cmp)
		if !ok {
			return
		}
		for _, side := range []*sql.Expr{&cmp.L, &cmp.R} {
			if lit, ok := (*side).(*sql.Lit); ok && lit.Val.Kind() == value.KindInt {
				args = append(args, int(lit.Val.AsInt()))
				*side = &sql.Param{Index: len(args)}
			}
		}
	}, nil)
	return args
}

// TestPreparedDifferentialCorpora runs the qgen differential corpora
// (core grammar, explicit-join grammar, recursive CTEs) through the
// engine's Prepare-then-Query path with every integer comparison literal
// lifted into a $n parameter, asserting byte-identical results against
// the direct (literal, unprepared) reference evaluation — both through
// the bulk QueryAll and re-materialized off the streaming cursor.
func TestPreparedDifferentialCorpora(t *testing.T) {
	rng := workload.Rand(20260731)
	planned, total := 0, 0
	trial := func(i int, src string) {
		t.Helper()
		inst := qgen.RandomInstance(rng, 12, i%3 == 0)
		refDB := sqleval.DB{}
		for _, r := range inst.Relations() {
			refDB[r.Name()] = r
		}
		want, err := sqleval.EvalString(src, refDB)
		if err != nil {
			t.Fatalf("trial %d: reference rejected %q: %v", i, src, err)
		}
		q, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", i, src, err)
		}
		args := liftLits(q)
		psrc := q.String()
		db := Open(inst.Relations()...)
		stmt, err := db.Prepare(LangSQL, psrc)
		if err != nil {
			t.Fatalf("trial %d: Prepare %q: %v", i, psrc, err)
		}
		if len(args) != stmt.NumParams() {
			t.Fatalf("trial %d: lifted %d literals but statement binds %d", i, len(args), stmt.NumParams())
		}
		total++
		if stmt.cur.Load().plan != nil {
			planned++
		}
		got, err := stmt.QueryAll(context.Background(), args...)
		if err != nil {
			t.Fatalf("trial %d: QueryAll %q: %v", i, psrc, err)
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: prepared path diverged on %q (from %q)\nreference:\n%s\nprepared:\n%s",
				i, psrc, src, want, got)
		}
		// Second execution of the same statement must not drift (the
		// re-plan-free property), this time through the cursor.
		rows, err := stmt.Query(context.Background(), args...)
		if err != nil {
			t.Fatalf("trial %d: Query: %v", i, err)
		}
		streamed := relation.New("result", stmt.Columns()...)
		for rows.Next() {
			streamed.Insert(relation.Tuple(rows.Values()))
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("trial %d: cursor error: %v", i, err)
		}
		if streamed.String() != want.String() {
			t.Fatalf("trial %d: streamed path diverged on %q\nreference:\n%s\nstreamed:\n%s",
				i, psrc, want, streamed)
		}
	}
	n := 0
	for i := 0; i < 1200; i++ {
		trial(n, qgen.Generate(rng))
		n++
	}
	corePlanned, coreTotal := planned, total
	if corePlanned < coreTotal*90/100 {
		t.Fatalf("only %d/%d parameterized core-grammar statements were planner-compiled", corePlanned, coreTotal)
	}
	for i := 0; i < 400; i++ {
		trial(n, qgen.GenerateJoins(rng))
		n++
	}
	for i := 0; i < 200; i++ {
		trial(n, qgen.GenerateRecursive(rng))
		n++
	}
	t.Logf("prepared differential: %d/%d planner-compiled (core: %d/%d)", planned, total, corePlanned, coreTotal)
}
