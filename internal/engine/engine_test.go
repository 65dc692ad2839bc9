package engine

import (
	"context"
	"errors"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/convention"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/workload"
)

func chain(n int) *relation.Relation {
	p := relation.New("P", "s", "t")
	for i := 0; i < n; i++ {
		p.Add(i, i+1)
	}
	return p
}

// TestColumnsAgreeAcrossPlannedAndFallback pins the one renaming rule for
// repeated item names: a planner-compiled statement and one the planner
// refuses (a scalar subquery) report the same Columns for the same
// select list, and the fallback's result carries them.
func TestColumnsAgreeAcrossPlannedAndFallback(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 10).Add(2, 20))
	const items = "select R.A, R.A, R.B A, R.B + 1, R.B + 1 col4 from R"
	planned, err := db.Prepare(LangSQL, items)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := db.Prepare(LangSQL, items+" where R.B >= (select min(X.B) from R X)")
	if err != nil {
		t.Fatal(err)
	}
	if planned.cur.Load().plan == nil {
		t.Fatal("the plain select was not planner-compiled")
	}
	if err := fallback.cur.Load().planErr; !errors.Is(err, plan.ErrNotPlannable) {
		t.Fatalf("the scalar-subquery select did not fall back: %v", err)
	}
	want := []string{"A", "A_2", "A_3", "col4", "col4_2"}
	if got := planned.Columns(); !slices.Equal(got, want) {
		t.Fatalf("planned Columns = %v, want %v", got, want)
	}
	if got := fallback.Columns(); !slices.Equal(got, want) {
		t.Fatalf("fallback Columns = %v, want %v", got, want)
	}
	rel, err := fallback.QueryAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Attrs(); !slices.Equal(got, want) || rel.Card() != 2 {
		t.Fatalf("fallback result has attrs %v (%d rows), want %v (2 rows)", got, rel.Card(), want)
	}
}

func TestSQLPreparedParamQuery(t *testing.T) {
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(2, 21).Add(3, 30)
	db := Open(r)
	stmt, err := db.Prepare(LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
	if cols := stmt.Columns(); len(cols) != 2 || cols[0] != "A" || cols[1] != "B" {
		t.Fatalf("Columns = %v", cols)
	}
	for _, tc := range []struct {
		arg  int
		want int
	}{{1, 1}, {2, 2}, {3, 1}, {9, 0}} {
		rows, err := stmt.Query(context.Background(), tc.arg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			var a, b int64
			if err := rows.Scan(&a, &b); err != nil {
				t.Fatal(err)
			}
			if a != int64(tc.arg) {
				t.Fatalf("A = %d, want %d", a, tc.arg)
			}
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if n != tc.want {
			t.Fatalf("arg %d: %d rows, want %d", tc.arg, n, tc.want)
		}
	}
	// The plan must actually probe on the parameter, not scan.
	explain, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "probe(A=$1)") {
		t.Fatalf("expected a parameter probe in the plan:\n%s", explain)
	}
}

func TestSQLArgCountAndTypeErrors(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 2))
	stmt, err := db.Prepare(LangSQL, "select R.A from R where R.A = $1 and R.B = $2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(context.Background(), 1); err == nil {
		t.Fatal("expected an argument-count error")
	}
	if _, err := stmt.Query(context.Background(), 1, In("X", relation.New("X", "a"))); err == nil {
		t.Fatal("expected a binding-rejected error for SQL")
	}
	if _, err := stmt.Query(context.Background(), 1, struct{}{}); err == nil {
		t.Fatal("expected an unsupported-type error")
	}
}

func TestSQLNullAndFloatParams(t *testing.T) {
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, nil)
	db := Open(r)
	// NULL binding: equality with NULL holds for no row.
	rel, err := db.QueryAll(context.Background(), LangSQL, "select R.A from R where R.B = $1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 0 {
		t.Fatalf("NULL = NULL matched %d rows, want 0", rel.Card())
	}
	// Float binding matches the int column under value equality.
	rel, err = db.QueryAll(context.Background(), LangSQL, "select R.A from R where R.B = $1", 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 1 {
		t.Fatalf("10.0 matched %d rows, want 1", rel.Card())
	}
}

func TestARCPreparedWithBinding(t *testing.T) {
	db := Open(chain(5)).SetConventions(convention.SetLogic())
	stmt, err := db.Prepare(LangARC,
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := stmt.QueryAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 15 { // chain of 5 edges → 15 TC pairs
		t.Fatalf("TC over chain(5) has %d pairs, want 15", rel.Distinct())
	}
	// Rebind P to a different instance through the override slot.
	rel, err = stmt.QueryAll(context.Background(), In("P", chain(3)))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 6 {
		t.Fatalf("TC over bound chain(3) has %d pairs, want 6", rel.Distinct())
	}
	// The original catalog relation is untouched for the next execution.
	rel, err = stmt.QueryAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 15 {
		t.Fatalf("override leaked across executions: %d pairs", rel.Distinct())
	}
}

func TestDatalogPreparedWithBinding(t *testing.T) {
	db := Open(chain(4))
	stmt, err := db.Prepare(LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	if cols := stmt.Columns(); len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	rel, err := stmt.QueryAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 10 {
		t.Fatalf("TC over chain(4) has %d pairs, want 10", rel.Distinct())
	}
	rel, err = stmt.QueryAll(context.Background(), In("P", chain(2)))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 3 {
		t.Fatalf("TC over bound chain(2) has %d pairs, want 3", rel.Distinct())
	}
	// Atoms are positional: a binding with other attribute names works.
	renamed := chain(2).Rename("Edges", []string{"from", "to"})
	rel, err = stmt.QueryAll(context.Background(), In("P", renamed))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Distinct() != 3 {
		t.Fatalf("TC over a renamed binding has %d pairs, want 3", rel.Distinct())
	}
	if _, err := stmt.QueryAll(context.Background(), In("P", relation.New("P", "only").Add(1))); err == nil {
		t.Fatal("binding P at the wrong arity should fail")
	}
	// A predicate that exists only as a binding: Prepare succeeds without
	// it, execution needs it.
	stmt, err = Open().Prepare(LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.QueryAll(context.Background()); err == nil {
		t.Fatal("running without the binding should fail")
	}
	for _, p := range []*relation.Relation{chain(3), renamed} {
		rel, err = stmt.QueryAll(context.Background(), In("P", p))
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Distinct() * (p.Distinct() + 1) / 2; rel.Distinct() != want {
			t.Fatalf("TC over a binding-only P has %d pairs, want %d", rel.Distinct(), want)
		}
	}
}

// TestDatalogRunsUnderSouffleConventions: a Datalog statement is ARC
// under Soufflé conventions whatever the DB's ARC conventions are — sum
// over an empty body is 0 (not NULL) and the output is a set.
func TestDatalogRunsUnderSouffleConventions(t *testing.T) {
	r := relation.New("R", "ak", "b").Add(1, 2).Add(1, 2).Add(1, 3)
	s := relation.New("S", "a", "b")
	want := relation.New("W", "ak", "sm").Add(1, 0)
	for _, conv := range []convention.Conventions{convention.SetLogic(), convention.SQL()} {
		db := Open(r, s).SetConventions(conv)
		got, err := db.QueryAll(context.Background(), LangDatalog,
			"Q(ak,sm) :- R(ak,_), sm = sum b : {S(a,b), a < ak}.")
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(want) {
			t.Fatalf("under %s ARC conventions:\n%s", conv, got)
		}
	}
}

func TestDatalogUnstratifiableRejected(t *testing.T) {
	db := Open(relation.New("N", "v").Add(1))
	_, err := db.Prepare(LangDatalog, "A(x) :- N(x), !B(x). B(x) :- N(x), !A(x).")
	if err == nil || !strings.Contains(err.Error(), "stratifiable") {
		t.Fatalf("want the stratification error at Prepare, got %v", err)
	}
}

// TestDatalogExplainGolden pins EXPLAIN for a Datalog statement: the
// per-scope plans of the collections the program lowers to — the target
// first, then the predicates it reads as views — and, under ANALYZE, the
// fixpoint round history.
func TestDatalogExplainGolden(t *testing.T) {
	db := Open(chain(3), relation.New("N", "v").Add(0).Add(1))
	stmt, err := db.Prepare(LangDatalog, `
		R(x,y) :- P(x,y).
		R(x,y) :- P(x,z), R(z,y).
		Un(x,y) :- N(x), N(y), !R(x,y).`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	want := `scope ∃t1 ∈ N, t2 ∈ N:
  Project [x1 = t1.v, x2 = t2.v]
    Filter (¬∃t3 ∈ R)
      CrossJoin INNER
        Scan N as t1
        Scan N as t2
      AntiProbe ∃t3 ∈ R
        HashJoin INNER (t3.x1 = t1.v, t3.x2 = t2.v) index(R)
          Outer
          Scan R as t3
view R:
Fixpoint R (semi-naive, ΔR per round):
  rule 1 [seed]:
    scope ∃t1 ∈ P:
      Project [x1 = t1.s, x2 = t1.t]
        Scan P as t1
  rule 2 [delta (semi-naive)]:
    scope ∃t2 ∈ P, t3 ∈ R:
      Project [x1 = t2.s, x2 = t3.x2]
        HashJoin INNER (t3.x1 = t2.t) index(P)
          CteScan ΔR as t3
          Scan P as t2
`
	if got != want {
		t.Fatalf("datalog explain mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	text, err := stmt.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"AntiProbe ∃t3 ∈ R (probes=4 matches=1)", "CteScan ΔR as t3 (rows=9 ",
		"Fixpoint R: rounds=3 deltas=[5 1 0]", "Total: rows=3",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("analyze output lacks %q:\n%s", line, text)
		}
	}
	// Under ANALYZE the executed plan is the explained one, annotated.
	if counters := regexp.MustCompile(` \((rows|probes|groups)=[^)]*\)`); !strings.Contains(counters.ReplaceAllString(text, ""), want) {
		t.Errorf("analyze output is not the explained plan:\n%s", text)
	}

	// An aggregate over the relation it is correlated with is one γ (the
	// FOI scope runs as FIO under set semantics), an aggregate over
	// another relation a grouped lookup, and a negated atom an anti
	// probe: no scope enumerates environments. Under ANALYZE the lookup
	// reports its groups (the NULL key has none), probes and misses, the
	// filter its probes and matches. The γ's NULL-keyed group folds no
	// row, as the lookup's NULL key reads the empty group: (NULL, 0).
	db = Open(
		relation.New("G", "A", "B").Add(1, 10).Add(1, 20).Add(2, 5).Add(nil, 7),
		relation.New("R", "A", "B").Add(1, 10).Add(2, 20).Add(3, 30),
		relation.New("S", "B", "C").Add(10, 0).Add(20, 1).Add(30, 0))
	for _, tc := range []struct{ src, explain, analyze string }{
		{"Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}.", `scope ∃t1 ∈ G, x4 ∈ {Xagg3(res) | ∃t2 ∈ G, γ ∅ [t2.A = t1.A ∧ Xagg3.res = sum(t2.B)]} (FOI as FIO: set semantics):
  Project [x1 = t1.A, x2 = x4.res]
    GroupAggregate keys=[t1.A] aggs=[sum(t1.B)] null-keyed=empty
      Scan G as t1
`, "GroupAggregate keys=[t1.A] aggs=[sum(t1.B)] null-keyed=empty (rows=3 "},
		{"Q(a,sm) :- R(a,_), sm = sum b : {G(a,b)}.", `scope ∃t1 ∈ R, x4 ∈ {Xagg3(res) | ∃t2 ∈ G, γ ∅ [t2.A = t1.A ∧ Xagg3.res = sum(t2.B)]}:
  Project [x1 = t1.A, x2 = x4.res]
    GroupLookup Xagg3 [x4] keys(t2.A = t1.A) aggs=[sum(t2.B)] empty={0}
      Scan R as t1
      Scan G as t2
`, "empty={0} (groups=2 probes=3 misses=1)"},
		{"Q(a) :- R(a,b), !S(b,0).", `scope ∃t1 ∈ R:
  Project [x1 = t1.A]
    Filter (¬∃t2 ∈ S)
      Scan R as t1
      AntiProbe ∃t2 ∈ S
        HashJoin INNER (t2.B = t1.B) index(S)
          Outer
          Scan S as t2 probe(C=0)
`, "AntiProbe ∃t2 ∈ S (probes=3 matches=2)"},
	} {
		stmt, err := db.Prepare(LangDatalog, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := stmt.Explain(); err != nil || got != tc.explain {
			t.Errorf("%s: explain mismatch (%v)\ngot:\n%s\nwant:\n%s", tc.src, err, got, tc.explain)
		}
		if text, err := stmt.ExplainAnalyze(context.Background()); err != nil || !strings.Contains(text, tc.analyze) {
			t.Errorf("%s: analyze output lacks %q (%v):\n%s", tc.src, tc.analyze, err, text)
		}
	}
	rel, err := db.QueryAll(context.Background(), LangDatalog, "Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}.")
	sums := relation.New("Q", "x1", "x2").Add(1, 30).Add(2, 5).Add(nil, 0)
	if err != nil || !rel.EqualBag(sums) {
		t.Errorf("grouped sum over G (%v):\n%s\nwant:\n%s", err, rel, sums)
	}
}

func TestThreeLanguageAgreement(t *testing.T) {
	// The paper's one-language-family claim, through the one front door:
	// transitive closure in SQL, ARC, and Datalog over the same instance
	// must be byte-identical.
	db := Open(chain(10)).SetConventions(convention.SetLogic())
	ctx := context.Background()
	sqlRel, err := db.QueryAll(ctx, LangSQL, `with recursive tc(s, t) as (
		select P.s, P.t from P union select tc.s, P.t from tc, P where tc.t = P.s
	) select tc.s, tc.t from tc`)
	if err != nil {
		t.Fatal(err)
	}
	arcRel, err := db.QueryAll(ctx, LangARC,
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	if err != nil {
		t.Fatal(err)
	}
	dlRel, err := db.QueryAll(ctx, LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	canon := func(r *relation.Relation) string { return r.Rename("X", []string{"c1", "c2"}).String() }
	if canon(sqlRel) != canon(arcRel) || canon(sqlRel) != canon(dlRel) {
		t.Fatalf("three-way divergence:\nSQL:\n%s\nARC:\n%s\nDatalog:\n%s", sqlRel, arcRel, dlRel)
	}
}

// TestThreeLanguageParity holds the three languages to one answer and one
// order of cost on arcbench's three_lang shapes (join, grouped sum,
// transitive closure over R 800, S 450, G 600 and the 40-chain): no
// statement's EXPLAIN has a scope on environment enumeration, the three
// spellings of a shape return equal bags, the ARC join and grouped sum
// and the Datalog join — which run the plans lowered at Prepare, as SQL
// does — allocate within 10% of SQL's, the Datalog grouped sum — a FOI
// aggregate over G, which runs as the ARC spelling's γ — within 10% of
// the ARC one, and the SQL closure, whose recursive step streams as the ARC delta rule's
// does, allocates within 10% of the ARC closure, through a drained cursor
// as a client reads it and through QueryAll: a SQL QueryAll whose select
// passes a CTE's rows through hands that CTE's relation over, as ARC's
// hands over its fixpoint total, rather than copying its 780 tuples.
func TestThreeLanguageParity(t *testing.T) {
	db := Open(workload.ThreeLang(workload.Rand(1))...).SetConventions(convention.SetLogic())
	ctx := context.Background()
	allocs, cursor := map[string]float64{}, map[string]float64{}
	for _, sh := range workload.ThreeLangShapes {
		var first *relation.Relation
		for i, lang := range []Lang{LangSQL, LangARC, LangDatalog} {
			stmt, err := db.Prepare(lang, [3]string{sh.SQL, sh.ARC, sh.Datalog}[i])
			if err != nil {
				t.Fatalf("%s %s: %v", lang, sh.Name, err)
			}
			plan, err := stmt.Explain()
			if err != nil || strings.Contains(plan, "environment enumeration") {
				t.Errorf("%s %s: a scope enumerates environments (%v):\n%s", lang, sh.Name, err, plan)
			}
			rel, err := stmt.QueryAll(ctx)
			if err != nil {
				t.Fatalf("%s %s: %v", lang, sh.Name, err)
			}
			attrs := []string{"c1", "c2"}[:len(rel.Attrs())]
			if rel = rel.Rename("X", attrs); first == nil {
				first = rel
			} else if rel.Card() == 0 || !rel.EqualBag(first) {
				t.Errorf("%s %s: %d rows, SQL returned %d; bags differ", lang, sh.Name, rel.Card(), first.Card())
			}
			allocs[lang.String()+"_"+sh.Name] = testing.AllocsPerRun(10, func() {
				if _, err := stmt.QueryAll(ctx); err != nil {
					t.Fatal(err)
				}
			})
			cursor[lang.String()+"_"+sh.Name] = testing.AllocsPerRun(10, func() {
				rows, err := stmt.Query(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for _, name := range []string{"arc_join", "datalog_join", "arc_group"} {
		sqlName := "sql_" + name[strings.Index(name, "_")+1:]
		if a, s := allocs[name], allocs[sqlName]; a > 1.10*s {
			t.Errorf("%s allocates %.0f times per run, %s %.0f: more than 1.10×", name, a, sqlName, s)
		}
	}
	if d, a := allocs["datalog_group"], allocs["arc_group"]; d > 1.10*a {
		t.Errorf("datalog_group allocates %.0f times per run, arc_group %.0f: more than 1.10×", d, a)
	}
	if q, a := cursor["sql_tc"], cursor["arc_tc"]; q > 1.10*a {
		t.Errorf("sql_tc allocates %.0f times per cursor, arc_tc %.0f: more than 1.10×", q, a)
	}
	if q, a := allocs["sql_tc"], allocs["arc_tc"]; q > 1.10*a {
		t.Errorf("sql_tc allocates %.0f times per run, arc_tc %.0f: more than 1.10×", q, a)
	}
	t.Logf("allocations per run: %v; per cursor: %v", allocs, cursor)
}

// TestDeltaDrivesEitherAtomOrder holds a transitive closure to one cost
// whichever atom its recursive rule names first (docs/INVARIANTS.md "The
// delta drives"). In each language the spelling with the recursive atom
// last (three_lang's) and the one with it first have the same plan shape
// — the delta streams and probes the static P — the same fixpoint rounds
// and per-round deltas, equal bags, and allocations within 5%.
func TestDeltaDrivesEitherAtomOrder(t *testing.T) {
	db := Open(workload.ThreeLang(workload.Rand(1))...).SetConventions(convention.SetLogic())
	ctx := context.Background()
	tc := workload.ThreeLangShapes[2]
	history := regexp.MustCompile(`rounds=\d+ deltas=\[[^\]]*\]`)
	// drivenBy names the side a recursive step streams and the side it
	// looks up: the children of the step's hash join, the SQL step's or
	// the delta rule's.
	drivenBy := func(plan string) (stream, lookup string) {
		lines := strings.Split(plan, "\n")
		for i, l := range lines {
			if strings.Contains(l, "HashJoin") && i+2 < len(lines) {
				a, b := strings.TrimSpace(lines[i+1]), strings.TrimSpace(lines[i+2])
				if strings.Contains(l, "build(left)") {
					return b, a
				}
				return a, b
			}
		}
		return "", ""
	}
	for _, c := range []struct {
		lang        Lang
		last, first string
		stream      string
		rounds      string
	}{
		{LangSQL, tc.SQL,
			"with recursive A (s, t) as (select P.s, P.t from P union select P.s, A.t from A, P where P.t = A.s) select A.s, A.t from A",
			"CteScan ΔA", "rounds=40 "},
		{LangARC, tc.ARC,
			"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃a2 ∈ A, p ∈ P [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}",
			"CteScan ΔA as ", "rounds=39 "},
		{LangDatalog, tc.Datalog, "A(x,y) :- P(x,y). A(x,y) :- A(z,y), P(x,z).", "CteScan ΔA as ", "rounds=39 "},
	} {
		var bags [2]*relation.Relation
		var hist [2]string
		var allocs [2]float64
		for i, src := range []string{c.last, c.first} {
			stmt, err := db.Prepare(c.lang, src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			plan, err := stmt.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if stream, lookup := drivenBy(plan); !strings.HasPrefix(stream, c.stream) || !strings.HasPrefix(lookup, "Scan P") {
				t.Errorf("%s: the step streams %q and looks up %q, want %q and P:\n%s", src, stream, lookup, c.stream, plan)
			}
			text, err := stmt.ExplainAnalyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if hist[i] = history.FindString(text); !strings.HasPrefix(hist[i], c.rounds) {
				t.Errorf("%s: fixpoint %q, want %s", src, hist[i], c.rounds)
			}
			if bags[i], err = stmt.QueryAll(ctx); err != nil {
				t.Fatal(err)
			}
			bags[i] = bags[i].Rename("X", []string{"c1", "c2"})
			allocs[i] = testing.AllocsPerRun(10, func() {
				if _, err := stmt.QueryAll(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		if hist[0] != hist[1] {
			t.Errorf("%s: fixpoints differ by atom order: %s vs %s", c.lang, hist[0], hist[1])
		}
		if bags[0].Card() == 0 || !bags[0].EqualBag(bags[1]) {
			t.Errorf("%s: answers differ by atom order (%d vs %d rows)", c.lang, bags[0].Card(), bags[1].Card())
		}
		if lo, hi := min(allocs[0], allocs[1]), max(allocs[0], allocs[1]); hi > 1.05*lo {
			t.Errorf("%s: %.0f allocations per run with the recursive atom last, %.0f with it first: more than 5%% apart", c.lang, allocs[0], allocs[1])
		}
	}
}

// compilations counts statement compilations so far: every Prepare (and
// every schema-change recompile) that the cache did not serve.
func compilations(db *DB) uint64 {
	st := db.Stats()
	return st.Prepares - st.CacheHits
}

func TestStmtCacheHitAndInvalidation(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("R", "A", "B").Add(1, 10), relation.New("S", "C"))
	const src = "select R.A from R where R.A = $1"
	s1, err := db.Prepare(LangSQL, src)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(LangSQL, src)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second Prepare missed the statement cache")
	}
	rowsFor := func(s *Stmt, a int) int {
		t.Helper()
		rel, err := s.QueryAll(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Card()
	}
	// Commits invalidate nothing — not one to another table, not one to
	// the statement's own — and the held statement reads the new data.
	compiled := compilations(db)
	mustExec(t, db, LangSQL, "insert into S values (5)")
	mustExec(t, db, LangSQL, "insert into R values (2, 20)")
	if s3, err := db.Prepare(LangSQL, src); err != nil || s3 != s1 {
		t.Fatalf("Prepare after two commits = %p, %v; want the cached %p", s3, err, s1)
	}
	if n := rowsFor(s1, 2); n != 1 {
		t.Fatalf("held statement sees %d rows for the inserted A=2, want 1", n)
	}
	// Neither does a Register that keeps the attribute list.
	db.Register(relation.New("R", "A", "B").Add(7, 70))
	if n := rowsFor(s1, 7); n != 1 {
		t.Fatalf("held statement sees %d rows for A=7 of the replacement relation, want 1", n)
	}
	// The inserts compiled themselves; the held statement never
	// recompiled.
	if got := compilations(db); got != compiled+2 {
		t.Fatalf("%d compilations across three data commits, want 2 (the two inserts)", got-compiled)
	}
	// A Register with another attribute list recompiles, exactly once.
	db.Register(relation.New("R", "B", "A").Add(90, 9))
	for range 3 {
		if n := rowsFor(s1, 9); n != 1 {
			t.Fatalf("held statement sees %d rows for A=9 after the schema change, want 1", n)
		}
	}
	if got := compilations(db); got != compiled+3 {
		t.Fatalf("%d compilations after one schema change, want exactly 1", got-compiled-2)
	}
	if s4, err := db.Prepare(LangSQL, src); err != nil || s4 != s1 {
		t.Fatalf("Prepare after the schema change = %p, %v; want the cached %p", s4, err, s1)
	}
	// DROP TABLE: the held statement fails the way a Prepare does now.
	const ins = "insert into R values ($1, $2)"
	held, err := db.Prepare(LangSQL, ins)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, LangSQL, "drop table R")
	_, wantErr := db.Prepare(LangSQL, ins)
	if wantErr == nil {
		t.Fatal("Prepare of an INSERT into a dropped table succeeded")
	}
	if _, err := held.Exec(ctx, 1, 2); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("held INSERT after DROP TABLE: err = %v, want %v", err, wantErr)
	}
	_, wantErr = db.QueryAll(ctx, LangSQL, src, 1)
	if _, err := s1.QueryAll(ctx, 1); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("held SELECT after DROP TABLE: err = %v, want %v", err, wantErr)
	}
}

// TestCommitsCompileNothing is the acceptance check of the schema-only
// freshness contract: 1 000 autocommit inserts into A cause no
// compilation of a held statement over B, nor of one over A.
func TestCommitsCompileNothing(t *testing.T) {
	ctx := context.Background()
	db := Open(relation.New("A", "k", "v"), relation.New("B", "k", "v").Add(1, 1))
	overA, err := db.Prepare(LangSQL, "select A.v from A where A.k = $1")
	if err != nil {
		t.Fatal(err)
	}
	overB, err := db.Prepare(LangSQL, "select B.v from B where B.k = $1")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(LangSQL, "insert into A values ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	before := compilations(db)
	for i := range 1000 {
		if _, err := ins.Exec(ctx, i, i*2); err != nil {
			t.Fatal(err)
		}
		if i%100 != 0 {
			continue
		}
		if rel, err := overA.QueryAll(ctx, i); err != nil || rel.Card() != 1 {
			t.Fatalf("after insert %d: statement over A: %v, %v", i, rel, err)
		}
		if rel, err := overB.QueryAll(ctx, 1); err != nil || rel.Card() != 1 {
			t.Fatalf("after insert %d: statement over B: %v, %v", i, rel, err)
		}
	}
	if got := compilations(db); got != before {
		t.Fatalf("1000 commits caused %d compilation(s), want 0", got-before)
	}
}

func TestStmtCacheLRUEviction(t *testing.T) {
	db := Open(relation.New("R", "A").Add(1))
	db.cache = newStmtCache(2)
	mustPrepare := func(src string) {
		if _, err := db.Prepare(LangSQL, src); err != nil {
			t.Fatal(err)
		}
	}
	mustPrepare("select R.A from R")
	mustPrepare("select R.A c from R")
	mustPrepare("select R.A d from R")
	if n := db.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
}

func TestRowsMultiplicityExpansionAndValues(t *testing.T) {
	r := relation.New("R", "A").Add(5).Add(5).Add(5).Add(8)
	db := Open(r)
	rows, err := db.Query(context.Background(), LangSQL, "select R.A from R")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	counts := map[int64]int{}
	for rows.Next() {
		vs := rows.Values()
		if len(vs) != 1 {
			t.Fatalf("Values = %v", vs)
		}
		counts[vs[0].AsInt()]++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if counts[5] != 3 || counts[8] != 1 {
		t.Fatalf("bag expansion wrong: %v", counts)
	}
}

func TestRowsScanConversions(t *testing.T) {
	r := relation.New("R", "i", "f", "s", "n").Add(4, 2.5, "hi", nil)
	db := Open(r)
	rows, err := db.Query(context.Background(), LangSQL, "select R.i, R.f, R.s, R.n from R")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var i int64
	var f float64
	var s string
	var n any
	if err := rows.Scan(&i, &f, &s, &n); err != nil {
		t.Fatal(err)
	}
	if i != 4 || f != 2.5 || s != "hi" || n != nil {
		t.Fatalf("scanned (%v, %v, %q, %v)", i, f, s, n)
	}
	var v value.Value
	if err := rows.Scan(&v, &v, &v, &v); err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Fatalf("last column = %v, want NULL", v)
	}
	var wrong bool
	if err := rows.Scan(&wrong, &f, &s, &n); err == nil {
		t.Fatal("expected a conversion error scanning int into *bool")
	}
}

func TestFallbackSQLThroughEngine(t *testing.T) {
	// LATERAL is outside the planner fragment: the statement must fall
	// back to the reference enumeration path, with parameters still bound.
	r := relation.New("R", "A").Add(1).Add(2)
	s := relation.New("S", "A", "B").Add(1, 10).Add(2, 20)
	db := Open(r, s)
	stmt, err := db.Prepare(LangSQL,
		"select R.A, X.B from R, lateral (select S.B from S where S.A = R.A) X where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Explain(); err == nil {
		t.Fatal("expected Explain to report the planner bailout")
	}
	rel, err := stmt.QueryAll(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 1 || rel.Tuples()[0][1].AsInt() != 20 {
		t.Fatalf("fallback result wrong:\n%s", rel)
	}
}

func TestPrepareErrors(t *testing.T) {
	db := Open(relation.New("R", "A").Add(1))
	if _, err := db.Prepare(LangSQL, "select from where"); err == nil {
		t.Fatal("expected a SQL parse error")
	}
	if _, err := db.Prepare(LangARC, "{broken"); err == nil {
		t.Fatal("expected an ARC parse error")
	}
	if _, err := db.Prepare(LangDatalog, ""); err == nil {
		t.Fatal("expected an empty-program error")
	}
	if _, err := db.PrepareDatalog("A(x) :- P(x).", "nope"); err == nil {
		t.Fatal("expected an unknown-predicate error")
	}
}
