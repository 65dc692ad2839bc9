package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/qgen"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestTracedDifferential runs 500 qgen queries through both the plain
// and the traced execution paths, asserting byte-identical results:
// tracing must observe, never perturb.
func TestTracedDifferential(t *testing.T) {
	rng := workload.Rand(20260808)
	trial := func(i int, src string) {
		t.Helper()
		inst := qgen.RandomInstance(rng, 12, i%3 == 0)
		db := Open(inst.Relations()...)
		stmt, err := db.Prepare(LangSQL, src)
		if err != nil {
			t.Fatalf("trial %d: Prepare %q: %v", i, src, err)
		}
		want, err := stmt.QueryAll(context.Background())
		if err != nil {
			t.Fatalf("trial %d: QueryAll %q: %v", i, src, err)
		}
		rows, tr, err := stmt.QueryTraced(context.Background())
		if err != nil {
			t.Fatalf("trial %d: QueryTraced %q: %v", i, src, err)
		}
		got := relation.New("result", stmt.Columns()...)
		for rows.Next() {
			got.Insert(relation.Tuple(rows.Values()))
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("trial %d: traced cursor: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: traced execution diverged on %q\nplain:\n%s\ntraced:\n%s", i, src, want, got)
		}
		if tr.Rows != int64(got.Card()) {
			t.Fatalf("trial %d: trace total rows = %d, cursor streamed %d", i, tr.Rows, got.Card())
		}
		if stmt.LastTrace() != tr {
			t.Fatalf("trial %d: LastTrace does not return the traced run", i)
		}
	}
	n := 0
	for i := 0; i < 300; i++ {
		trial(n, qgen.Generate(rng))
		n++
	}
	for i := 0; i < 100; i++ {
		trial(n, qgen.GenerateJoins(rng))
		n++
	}
	for i := 0; i < 100; i++ {
		trial(n, qgen.GenerateRecursive(rng))
		n++
	}
}

// TestExplainAnalyzeEngine pins the engine-level surface: the rendered
// executed plan carries actual row counts and a total line, and a
// recursive query reports its per-round deltas.
func TestExplainAnalyzeEngine(t *testing.T) {
	e := relation.New("E", "x", "y")
	e.Add(1, 2)
	e.Add(2, 3)
	e.Add(3, 4)
	db := Open(e)
	stmt, err := db.Prepare(LangSQL,
		"with recursive tc(x, y) as (select E.x, E.y from E union select tc.x, E.y from tc, E where tc.y = E.x) select tc.x, tc.y from tc")
	if err != nil {
		t.Fatal(err)
	}
	text, err := stmt.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rounds=4", "deltas=[3 2 1 0]", "Total: rows=6"} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output lacks %q:\n%s", want, text)
		}
	}

	// The ARC surface reports fixpoint rounds too.
	arc, err := db.Prepare(LangARC,
		"{TC(x, y) | ∃e ∈ E [TC.x = e.x ∧ TC.y = e.y] ∨ ∃e ∈ E, t ∈ TC [TC.x = e.x ∧ e.y = t.x ∧ TC.y = t.y]}")
	if err != nil {
		t.Fatal(err)
	}
	atext, err := arc.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(atext, "Fixpoint") || !strings.Contains(atext, "Total: rows=6") {
		t.Errorf("ARC analyze output lacks fixpoint/total lines:\n%s", atext)
	}

	// An ARC LEFT join is a keyed LEFT hash join on E's index, its ON
	// constant pinning the right scan: two rows find no match and are
	// null-extended.
	left, err := db.Prepare(LangARC, "{Q(a, b) | ∃e ∈ E, f ∈ E, left(e, f) [Q.a = e.x ∧ Q.b = f.y ∧ e.y = f.x ∧ f.y = 3]}")
	if err != nil {
		t.Fatal(err)
	}
	ltext, err := left.ExplainAnalyze(context.Background())
	if want := "HashJoin LEFT (e.y = f.x) index(E) (rows=3 hits=1 misses=2 "; err != nil || !strings.Contains(ltext, want) ||
		!strings.Contains(ltext, "Scan E as f probe(y=3)") {
		t.Errorf("ARC LEFT join: analyze output lacks %q (%v):\n%s", want, err, ltext)
	}

	// SQL outside the planner fragment has no operator tree: it renders
	// the reference evaluator's one step with the planner's reason.
	fb, err := db.Prepare(LangSQL, "select E.x, L.y from E, lateral (select F.y from E F where F.x = E.y) L")
	if err != nil {
		t.Fatal(err)
	}
	ftext, err := fb.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := strings.LastIndex(ftext, " time=")
	if total < 0 {
		t.Fatalf("fallback analyze output has no total time:\n%s", ftext)
	}
	if got, want := ftext[:total], "Enumeration (reference evaluator): not plannable: LATERAL subquery\nTotal: rows=2"; got != want {
		t.Errorf("fallback analyze output:\n%s\nwant (up to the time):\n%s", ftext, want)
	}
	if _, err := fb.Explain(); err == nil || !strings.Contains(err.Error(), "LATERAL subquery") {
		t.Errorf("Explain of a fallback statement: err = %v, want the planner's reason", err)
	}
}

// TestSlowQueryLog injects an artificially low threshold and checks the
// log emits valid JSON lines with the statement's fingerprint, kind,
// duration, and row count — and that raising the threshold silences it.
func TestSlowQueryLog(t *testing.T) {
	r := relation.New("R", "A", "B")
	for i := 0; i < 100; i++ {
		r.Add(i, i*10)
	}
	db := Open(r)
	var buf bytes.Buffer
	db.SetSlowQueryLog(&buf, 0) // everything is slow
	rel, err := db.QueryAll(context.Background(), LangSQL, "select R.A from R where R.B >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), LangSQL, "insert into R values (1000, 10000)"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var q SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[0]), &q); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	if q.Fingerprint != Fingerprint(LangSQL, "select R.A from R where R.B >= 0") {
		t.Fatalf("fingerprint = %q", q.Fingerprint)
	}
	if q.Kind != "query" || q.Rows != int64(rel.Card()) || q.DurationMS < 0 {
		t.Fatalf("entry = %+v", q)
	}
	var w SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[1]), &w); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v\n%s", err, lines[1])
	}
	if w.Kind != "dml" || w.Rows != 1 {
		t.Fatalf("write entry = %+v", w)
	}
	if db.Stats().SlowQueries != 2 {
		t.Fatalf("SlowQueries = %d, want 2", db.Stats().SlowQueries)
	}

	// A sky-high threshold records nothing; removal stops the writer.
	buf.Reset()
	db.SetSlowQueryLog(&buf, time.Hour)
	if _, err := db.QueryAll(context.Background(), LangSQL, "select R.A from R"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast query logged under 1h threshold: %s", buf.String())
	}
	db.SetSlowQueryLog(nil, 0)
	if _, err := db.QueryAll(context.Background(), LangSQL, "select R.A from R"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("removed log still wrote: %s", buf.String())
	}
}

// TestDropTableEngine pins DROP TABLE through the engine: the relation
// disappears from the catalog, dependent statements fail, and dropping
// inside a rolled-back transaction leaves the table intact.
func TestDropTableEngine(t *testing.T) {
	db := Open()
	ctx := context.Background()
	mustExec := func(src string) {
		t.Helper()
		if _, err := db.Exec(ctx, LangSQL, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	mustExec("create table T (a, b)")
	mustExec("insert into T values (1, 2)")
	if _, err := db.QueryAll(ctx, LangSQL, "select T.a from T"); err != nil {
		t.Fatal(err)
	}

	// Drop inside a transaction, roll back: the table survives.
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, LangSQL, "drop table T"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.QueryAll(ctx, LangSQL, "select T.a from T"); err == nil {
		t.Fatal("in-transaction read of dropped table succeeded")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryAll(ctx, LangSQL, "select T.a from T"); err != nil {
		t.Fatalf("table gone after rollback: %v", err)
	}

	// Commit the drop for real.
	mustExec("drop table T")
	if _, err := db.QueryAll(ctx, LangSQL, "select T.a from T"); err == nil {
		t.Fatal("read after committed drop succeeded")
	}
	if _, err := db.Exec(ctx, LangSQL, "drop table T"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if db.Stats().DDLExecs < 3 {
		t.Fatalf("DDLExecs = %d, want >= 3", db.Stats().DDLExecs)
	}
}

// TestDropCreateConflict pins the commit-time semantics: a transaction
// that read (wrote) a table loses first-committer-wins against a
// concurrent committed DROP of that table.
func TestDropCreateConflict(t *testing.T) {
	db := Open(relation.New("T", "a"))
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, LangSQL, "insert into T values (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, LangSQL, "drop table T"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("insert into concurrently-dropped table committed")
	}
	if db.Stats().Conflicts == 0 {
		t.Fatal("conflict counter did not move")
	}
}
