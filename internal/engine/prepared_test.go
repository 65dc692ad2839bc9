package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The tests below hold the plans an ARC statement lowers at Prepare to
// the schema they read (docs/INVARIANTS.md, "An ARC or Datalog statement
// is lowered once, at Prepare"): a held plan reads columns by offset, so
// an execution over another column order must not run it.

// arcTC is the ARC transitive closure over P(s, t).
const arcTC = "{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"

// reversed is chain(n) as P(t, s): the same edges, columns swapped.
func reversed(n int) *relation.Relation {
	p := relation.New("P", "t", "s")
	for i := 0; i < n; i++ {
		p.Add(i+1, i)
	}
	return p
}

// TestARCRecompilesAfterDDL: P is dropped and created again with its
// columns in the other order. The held closure recompiles — P is one of
// its dependencies — and answers over the new P.
func TestARCRecompilesAfterDDL(t *testing.T) {
	ctx := context.Background()
	db := Open(chain(5)).SetConventions(convention.SetLogic())
	stmt, err := db.Prepare(LangARC, arcTC)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, LangSQL, "drop table P")
	mustExec(t, db, LangSQL, "create table P (t, s)")
	for i := 0; i < 5; i++ {
		mustExec(t, db, LangSQL, "insert into P values ($1, $2)", i+1, i)
	}
	got, err := stmt.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Card() != 15 || !got.EqualBag(want) {
		t.Fatalf("closure over P(t, s) after DDL:\n%s\nwant:\n%s", got, want)
	}
}

// TestARCBindingInOtherAttributeOrder: a binding of P whose attributes
// come in the other order is lowered afresh for its execution and
// returns the bag the base P does; the next execution without it runs
// the held plans again.
func TestARCBindingInOtherAttributeOrder(t *testing.T) {
	ctx := context.Background()
	db := Open(chain(5)).SetConventions(convention.SetLogic())
	stmt, err := db.Prepare(LangARC, arcTC)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.QueryAll(ctx, In("P", reversed(5)))
	if err != nil {
		t.Fatal(err)
	}
	if want.Card() != 15 || !got.EqualBag(want) {
		t.Fatalf("closure over a P(t, s) binding:\n%s\nwant:\n%s", got, want)
	}
	rows, err := stmt.Query(ctx, In("P", reversed(5)))
	if err != nil {
		t.Fatal(err)
	}
	if got, err = drainBag(rows); err != nil || !got.EqualBag(want) {
		t.Fatalf("cursor over a P(t, s) binding (%v):\n%s\nwant:\n%s", err, got, want)
	}
	if got, err = stmt.QueryAll(ctx); err != nil || !got.EqualBag(want) {
		t.Fatalf("the execution after the binding (%v):\n%s", err, got)
	}
}

// TestARCBindingOnlyRelationLowers: the relations of an ARC join exist
// only as bindings. At Prepare its scope cannot lower; the execution that
// binds them lowers it for itself, and its ANALYZE shows the plan it ran.
func TestARCBindingOnlyRelationLowers(t *testing.T) {
	ctx := context.Background()
	rels := workload.ThreeLang(workload.Rand(1))
	stmt, err := Open().SetConventions(convention.SetLogic()).Prepare(LangARC, workload.ThreeLangShapes[0].ARC)
	if err != nil {
		t.Fatal(err)
	}
	if text, err := stmt.Explain(); err != nil || !strings.Contains(text, "environment enumeration") {
		t.Fatalf("Explain without the relations (%v):\n%s", err, text)
	}
	args := []any{In("R", rels[0]), In("S", rels[1])}
	text, err := stmt.ExplainAnalyze(ctx, args...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "environment enumeration") || !strings.Contains(text, "HashJoin") {
		t.Fatalf("ANALYZE with the relations bound:\n%s", text)
	}
	got, err := stmt.QueryAll(ctx, args...)
	if err != nil {
		t.Fatal(err)
	}
	cat := eval.NewCatalog().AddRelation(rels[0]).AddRelation(rels[1])
	want, err := eval.EvalReference(arc.MustParseCollection(workload.ThreeLangShapes[0].ARC), cat, convention.SetLogic())
	if err != nil {
		t.Fatal(err)
	}
	if want.Card() == 0 || !got.EqualBag(want) {
		t.Fatalf("join over bound relations:\n%s\nwant:\n%s", got, want)
	}
}
