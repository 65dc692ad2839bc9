// Package repro holds the top-level benchmark harness: one benchmark per
// paper experiment (E01–E21, regenerating each figure-level claim per
// iteration) plus scaling micro-benchmarks for the substrates (parsers,
// the ARC evaluator, the SQL baseline evaluator, Datalog fixpoints,
// recursion depth, and matrix multiplication).
package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qgen"
	"repro/internal/relation"
	"repro/internal/relpat"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/sql2arc"
	"repro/internal/sqleval"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// benchExperiment reruns one full experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatalf("%s failed: %s", id, rep.Measured)
		}
	}
}

func BenchmarkE01Fig2TRC(b *testing.B)            { benchExperiment(b, "E01") }
func BenchmarkE02Fig3Lateral(b *testing.B)        { benchExperiment(b, "E02") }
func BenchmarkE03Fig4FIO(b *testing.B)            { benchExperiment(b, "E03") }
func BenchmarkE04Fig5FOI(b *testing.B)            { benchExperiment(b, "E04") }
func BenchmarkE05Fig6MultiAgg(b *testing.B)       { benchExperiment(b, "E05") }
func BenchmarkE06Fig7Hella(b *testing.B)          { benchExperiment(b, "E06") }
func BenchmarkE07Fig8Rel(b *testing.B)            { benchExperiment(b, "E07") }
func BenchmarkE08Fig9Boolean(b *testing.B)        { benchExperiment(b, "E08") }
func BenchmarkE09Fig10Recursion(b *testing.B)     { benchExperiment(b, "E09") }
func BenchmarkE10Fig11NotIn(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Fig12OuterJoin(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Fig13ScalarLateral(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13Fig15External(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Fig16UniqueSet(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Fig20MatMul(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16Fig21CountBug(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkE17Conventions(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18SetBag(b *testing.B)             { benchExperiment(b, "E18") }
func BenchmarkE19TRCNormalize(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20Validator(b *testing.B)          { benchExperiment(b, "E20") }
func BenchmarkE21Modality(b *testing.B)           { benchExperiment(b, "E21") }

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkARCParser(b *testing.B) {
	const src = "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃r2 ∈ R, γ ∅ [r2.A = r.A ∧ X.sm = sum(r2.B)]} [Q.A = r.A ∧ Q.sm = x.sm]}"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arc.ParseCollection(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParser(b *testing.B) {
	const src = `select R.dept, avg(S.sal) av from R, S
		where R.empl = S.empl group by R.dept having sum(S.sal) > 100`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQL2ARC(b *testing.B) {
	q := sql.MustParse(`select R.id from R,
		(select R2.id, count(S.d) as ct from R R2 left join S on R2.id = S.id group by R2.id) as X
		where R.q = X.ct and R.id = X.id`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sql2arc.Translate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalJoin scales the select-project-join of query (1).
func BenchmarkEvalJoin(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := workload.Rand(1)
			r := workload.RandomBinary(rng, "R", "A", "B", n, n/2, n/4)
			s := workload.RandomBinary(rng, "S", "B", "C", n, n/4, 3)
			col := arc.MustParseCollection(
				"{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}")
			cat := eval.NewCatalog().AddRelation(r).AddRelation(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(col, cat, convention.SQL()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalOuterJoin runs ARC's outer joins through eval.Eval: left,
// a 2 000-row R left-joined to the inner pair S ⋈ T, and full, R full-
// joined to S.
func BenchmarkEvalOuterJoin(b *testing.B) {
	rng := workload.Rand(3)
	r := workload.RandomBinary(rng, "R", "A", "B", 2000, 1000, 400)
	s := workload.RandomBinary(rng, "S", "B", "C", 500, 400, 50)
	u := workload.RandomBinary(rng, "T", "A", "C", 500, 200, 50)
	cat := eval.NewCatalog().AddRelation(r).AddRelation(s).AddRelation(u)
	for _, c := range []struct{ name, src string }{
		{"left", "{Q(a, c) | ∃r ∈ R, s ∈ S, u ∈ T, left(r, inner(s, u)) [Q.a = r.A ∧ Q.c = u.C ∧ r.B = s.B ∧ s.C = u.C]}"},
		{"full", "{Q(a, c) | ∃r ∈ R, s ∈ S, full(r, s) [Q.a = r.A ∧ Q.c = s.C ∧ r.B = s.B]}"},
	} {
		b.Run(c.name, func(b *testing.B) {
			col := arc.MustParseCollection(c.src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(col, cat, convention.SQL()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalGroupBy scales the FIO grouped aggregate (3).
func BenchmarkEvalGroupBy(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := workload.Rand(2)
			r := workload.RandomBinary(rng, "R", "A", "B", n, n/10, 100)
			col := arc.MustParseCollection(
				"{Q(A, sm) | ∃r ∈ R, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}")
			cat := eval.NewCatalog().AddRelation(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(col, cat, convention.SQL()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFOIvsFIO is the ablation of experiments E03 and E04: the same
// grouped aggregate as the FIO single-scope plan (3), the FOI
// per-outer-tuple plan (7) and the Datalog aggregate, which translates to
// FOI — each a prepared statement under set semantics, drained through a
// cursor. FOI and FIO are equal there, and the FOI scope runs as the FIO
// γ (EXPLAIN's "FOI as FIO"), so the three should cost one price.
func BenchmarkFOIvsFIO(b *testing.B) {
	for _, n := range []int{50, 200} {
		rng := workload.Rand(3)
		db := engine.Open(workload.RandomBinary(rng, "R", "A", "B", n, n/5, 50)).SetConventions(convention.SQLDistinct())
		for _, c := range []struct {
			name string
			lang engine.Lang
			src  string
		}{
			{"FIO", engine.LangARC, "{Q(A, sm) | ∃r ∈ R, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}"},
			{"FOI", engine.LangARC, "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃r2 ∈ R, γ ∅ [r2.A = r.A ∧ X.sm = sum(r2.B)]} [Q.A = r.A ∧ Q.sm = x.sm]}"},
			{"datalog", engine.LangDatalog, "Q(a,sm) :- R(a,_), sm = sum b : {R(a,b)}."},
		} {
			stmt, err := db.Prepare(c.lang, c.src)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := stmt.Query(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					rows.Each(func([]value.Value) bool { return true })
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRecursion scales transitive closure over chains.
func BenchmarkRecursion(b *testing.B) {
	col := arc.MustParseCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	for _, n := range []int{10, 25, 50} {
		p := workload.Chain(n)
		cat := eval.NewCatalog().AddRelation(p)
		b.Run(fmt.Sprintf("ARC/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(col, cat, convention.SetLogic()); err != nil {
					b.Fatal(err)
				}
			}
		})
		prog := datalog.MustParse("A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
		b.Run(fmt.Sprintf("Datalog/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datalog.EvalPredicate(prog, datalog.EDB{"P": p}, "A"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLRecursiveCTE scales WITH RECURSIVE transitive closure
// through the fixpoint-engine plan path and the independent reference
// iteration — the SQL face of the shared recursion engine.
func BenchmarkSQLRecursiveCTE(b *testing.B) {
	q := sql.MustParse(`with recursive tc(s, t) as (
		select P.s, P.t from P
		union
		select tc.s, P.t from tc, P where tc.t = P.s
	) select tc.s, tc.t from tc`)
	for _, n := range []int{25, 50} {
		db := sqleval.NewDB(workload.Chain(n))
		b.Run(fmt.Sprintf("plan/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planAndRun(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sqleval.Eval(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// planAndRun compiles q with internal/plan and executes it on db — the
// planner side of every plan-vs-reference series, compile included.
func planAndRun(q sql.Query, db sqleval.DB) (*relation.Relation, error) {
	p, err := plan.CompileSchema(q, db)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOn(db, nil, nil)
}

// BenchmarkPreparedVsReparse pins the engine's compile-once contract: a
// parameterized point lookup executed through one prepared statement
// (bind $1, probe, stream) against the re-parse-and-re-plan-per-call
// shape the pre-engine entry points had. The acceptance bar is ≥ 5×;
// see also the ratio test in internal/engine.
func BenchmarkPreparedVsReparse(b *testing.B) {
	rng := workload.Rand(21)
	r := workload.RandomBinary(rng, "R", "A", "B", 20000, 20000, 64)
	db := engine.Open(r)
	stmt, err := db.Prepare(engine.LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.QueryAll(ctx, i%20000); err != nil {
				b.Fatal(err)
			}
		}
	})
	sdb := sqleval.DB{"R": r}
	b.Run("reparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := sql.Parse(fmt.Sprintf("select R.A, R.B from R where R.A = %d", i%20000))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := planAndRun(q, sdb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchThreeLang drains one three_lang shape (workload.ThreeLangShapes),
// prepared once per language, over the workload's instance: the three
// spellings side by side. It drains with Rows.Each, as the server does,
// so no row pays the coroutine switch of Rows.Next.
func benchThreeLang(b *testing.B, shape int) {
	db := engine.Open(workload.ThreeLang(workload.Rand(1))...).SetConventions(convention.SetLogic())
	ctx := context.Background()
	sh := workload.ThreeLangShapes[shape]
	for i, lang := range []engine.Lang{engine.LangSQL, engine.LangARC, engine.LangDatalog} {
		stmt, err := db.Prepare(lang, [3]string{sh.SQL, sh.ARC, sh.Datalog}[i])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(lang.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := stmt.Query(ctx)
				if err != nil {
					b.Fatal(err)
				}
				rows.Each(func([]value.Value) bool { return true })
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThreeLangJoin, BenchmarkThreeLangGroup and
// BenchmarkThreeLangTC: the paper's claim is one relational core under
// three syntaxes, so one shape should cost one price
// (engine.TestThreeLanguageParity holds the allocation counts to it).
func BenchmarkThreeLangJoin(b *testing.B)  { benchThreeLang(b, 0) }
func BenchmarkThreeLangGroup(b *testing.B) { benchThreeLang(b, 1) }
func BenchmarkThreeLangTC(b *testing.B)    { benchThreeLang(b, 2) }

// BenchmarkTracedVsUntraced pins the observability overhead contract:
// tracing disabled costs nothing (the untraced cursor path is the same
// with or without the trace package compiled in), and tracing enabled
// stays within small-constant-factor territory on a point query — both
// shapes drain the same prepared statement through a streaming cursor.
func BenchmarkTracedVsUntraced(b *testing.B) {
	rng := workload.Rand(23)
	r := workload.RandomBinary(rng, "R", "A", "B", 20000, 20000, 64)
	db := engine.Open(r)
	stmt, err := db.Prepare(engine.LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := stmt.Query(ctx, i%20000)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, err := stmt.QueryTraced(ctx, i%20000)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentSessions measures N goroutines sharing one DB and
// one prepared statement — the race-safe concurrent-session contract
// under load (indexes, plan, and statement cache all shared).
func BenchmarkConcurrentSessions(b *testing.B) {
	rng := workload.Rand(22)
	r := workload.RandomBinary(rng, "R", "A", "B", 20000, 20000, 64)
	db := engine.Open(r)
	stmt, err := db.Prepare(engine.LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetParallelism(2) // ≥ 8 sessions on a 4-core runner
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := stmt.QueryAll(ctx, (i*131)%20000); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkParallelProbe drains arcbench's join1000 — J1 ⋈ J2 on 1 000
// rows each, J2 probed through its index — serially and from GOMAXPROCS
// goroutines at once (RunParallel) on one prepared statement. The
// relations a DB opens with are frozen bases, whose indexes a probe reads
// without the relation's lock; a probe that took it would bounce its
// cache line between the sessions, and the parallel drain would cost
// no less per op than the serial one.
func BenchmarkParallelProbe(b *testing.B) {
	rng := workload.Rand(1)
	j1, j2 := relation.New("J1", "X", "V"), relation.New("J2", "Y", "W")
	for i, p := range rng.Perm(1000) {
		j1.Add(i, 1000+p)
		j2.Add(p, 2000+i)
	}
	stmt, err := engine.Open(j1, j2).Prepare(engine.LangSQL, "select J1.V, J2.W from J1, J2 where J1.X = J2.Y")
	if err != nil {
		b.Fatal(err)
	}
	drain := func() error {
		rows, err := stmt.Query(context.Background())
		if err != nil {
			return err
		}
		n := 0
		rows.Each(func([]value.Value) bool { n++; return true })
		if err := rows.Close(); err != nil || n != 1000 {
			return fmt.Errorf("rows = %d, err %v", n, err)
		}
		return nil
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := drain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := drain(); err != nil {
					b.Error(err) // b.Fatal must not run on a RunParallel worker
					return
				}
			}
		})
	})
}

// BenchmarkInsertThroughput measures the write path per inserted row:
// autocommit (one copy-on-write commit per statement) against batched
// transactions (one commit per 256 rows). The table is cleared whenever
// it reaches 4096 rows so the copy-on-write clone cost stays bounded
// and per-op numbers are comparable across b.N.
func BenchmarkInsertThroughput(b *testing.B) {
	ctx := context.Background()
	const resetAt = 4096
	b.Run("autocommit", func(b *testing.B) {
		db := engine.Open(relation.New("R", "A", "B"))
		stmt, err := db.Prepare(engine.LangSQL, "insert into R values ($1, $2)")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		rows := 0
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(ctx, i, i); err != nil {
				b.Fatal(err)
			}
			if rows++; rows >= resetAt {
				rows = 0
				if _, err := db.Exec(ctx, engine.LangSQL, "delete from R"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("tx256", func(b *testing.B) {
		db := engine.Open(relation.New("R", "A", "B"))
		b.ReportAllocs()
		i, rows := 0, 0
		for i < b.N {
			tx, err := db.Begin(ctx)
			if err != nil {
				b.Fatal(err)
			}
			stmt, err := tx.Prepare(engine.LangSQL, "insert into R values ($1, $2)")
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 256 && i < b.N; j++ {
				if _, err := stmt.Exec(ctx, i, i); err != nil {
					b.Fatal(err)
				}
				i++
				rows++
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if rows >= resetAt {
				rows = 0
				if _, err := db.Exec(ctx, engine.LangSQL, "delete from R"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSnapshotReadUnderWrites measures a prepared point query while
// a background writer commits continuously: every read is a statement-
// cache hit (commits invalidate nothing) executed on whatever snapshot
// is the head by then — the cost of the snapshot indirection the MVCC
// layer added.
func BenchmarkSnapshotReadUnderWrites(b *testing.B) {
	ctx := context.Background()
	rng := workload.Rand(23)
	r := workload.RandomBinary(rng, "R", "A", "B", 20000, 20000, 64)
	db := engine.Open(r, relation.New("W", "K"))
	const src = "select R.A, R.B from R where R.A = $1"
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(ctx, engine.LangSQL, "insert into W values ($1)", n); err != nil {
				b.Error(err)
				return
			}
			if n++; n%1024 == 0 {
				if _, err := db.Exec(ctx, engine.LangSQL, "delete from W"); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := db.Prepare(engine.LangSQL, src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stmt.QueryAll(ctx, i%20000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkMatMul compares the ARC evaluation of (26) against the direct
// sparse baseline across matrix sizes.
func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		rng := workload.Rand(4)
		ma := workload.SparseMatrix(rng, "A", n, 0.4)
		mb := workload.SparseMatrix(rng, "B", n, 0.4)
		cat := eval.NewCatalog().WithStandardExternals().AddRelation(ma).AddRelation(mb)
		b.Run(fmt.Sprintf("ARC/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(relpat.MatMul(), cat, convention.SetLogic()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				workload.MatMulReference(ma, mb)
			}
		})
	}
}

// --- exec-layer micro-benchmarks ------------------------------------------

// BenchmarkRelationProbe measures a single indexed point lookup against
// the scan it replaces.
func BenchmarkRelationProbe(b *testing.B) {
	rng := workload.Rand(13)
	r := workload.RandomBinary(rng, "R", "a", "b", 10000, 10000, 100)
	probe := []value.Value{value.Int(4321)}
	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Probe([]int{0}, probe, func(relation.Tuple, int) bool { return true })
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Each(func(t relation.Tuple, _ int) {
				_ = t[0].Key() == probe[0].Key()
			})
		}
	})
}

// BenchmarkExecGroupAggregate measures streaming γ.
func BenchmarkExecGroupAggregate(b *testing.B) {
	rng := workload.Rand(14)
	r := workload.RandomBinary(rng, "R", "a", "b", 10000, 200, 1000)
	aggs := []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := 0
		for range exec.GroupAggregate(exec.Scan(r), []int{0}, aggs, convention.SQL(), nil) {
			groups++
		}
		if groups == 0 {
			b.Fatal("no groups")
		}
	}
}

// benchSQLBoth measures one query through the reference enumeration
// evaluator and through internal/plan (compile + execute).
func benchSQLBoth(b *testing.B, src string, db sqleval.DB) {
	q := sql.MustParse(src)
	for _, m := range []struct {
		name string
		run  func(sql.Query, sqleval.DB) (*relation.Relation, error)
	}{{"enum", sqleval.Eval}, {"plan", planAndRun}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.run(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLGroupBy measures the streamed γ against per-row grouping.
func BenchmarkSQLGroupBy(b *testing.B) {
	rng := workload.Rand(2)
	r := workload.RandomBinary(rng, "R", "A", "B", 5000, 500, 100)
	benchSQLBoth(b, "select R.A, sum(R.B) sm, count(R.B) ct from R group by R.A",
		sqleval.DB{"R": r})
}

// BenchmarkSQLInSemiJoin measures subquery conjuncts against the per-row
// re-evaluation the enumeration path performs: an uncorrelated IN; an
// uncorrelated NOT IN over a subquery without NULLs, where every row the
// membership misses asks the element scope whether x = e is Unknown; a
// correlated NOT EXISTS; and a correlated EXISTS over a CTE.
func BenchmarkSQLInSemiJoin(b *testing.B) {
	rng := workload.Rand(3)
	r := workload.RandomBinary(rng, "R", "A", "B", 2000, 1000, 50)
	s := workload.RandomBinary(rng, "S", "B", "C", 2000, 50, 20)
	db := sqleval.DB{"R": r, "S": s}
	for _, c := range []struct{ name, src string }{
		{"in", "select R.A from R where R.B in (select S.B from S where S.C = 3)"},
		{"not_in", "select R.A from R where R.B not in (select S.B from S where S.C = 3)"},
		{"not_exists", "select R.A from R where not exists (select 1 from S where S.B = R.B and S.C = 3)"},
		{"exists_cte", "with X as (select S.B, S.C from S where S.C < 10) " +
			"select R.A from R where exists (select 1 from X where X.B = R.B and X.C = 3)"},
	} {
		b.Run(c.name, func(b *testing.B) { benchSQLBoth(b, c.src, db) })
	}
}

// BenchmarkSQLOuterJoin measures the hashed FULL JOIN against the
// nested-pair enumeration.
func BenchmarkSQLOuterJoin(b *testing.B) {
	rng := workload.Rand(4)
	r := workload.RandomBinary(rng, "R", "A", "B", 1000, 1000, 200)
	s := workload.RandomBinary(rng, "S", "B", "C", 1000, 200, 20)
	benchSQLBoth(b, "select R.A, S.C from R full join S on R.B = S.B",
		sqleval.DB{"R": r, "S": s})
}

// BenchmarkSQLEval measures the independent SQL baseline evaluator.
func BenchmarkSQLEval(b *testing.B) {
	rng := workload.Rand(5)
	r := workload.RandomBinary(rng, "R", "A", "B", 300, 30, 100)
	db := sqleval.DB{"R": r}
	q := sql.MustParse("select R.A, sum(R.B) sm, count(R.B) c from R group by R.A having sum(R.B) > 100")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqleval.Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidator measures the NL2SQL validation path.
func BenchmarkValidator(b *testing.B) {
	col := relpat.MultiAggHella()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Validate(col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHigraph measures diagram construction plus SVG rendering.
func BenchmarkHigraph(b *testing.B) {
	col := relpat.UniqueSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := core.HigraphOf(col)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.SVG()) == 0 {
			b.Fatal("empty SVG")
		}
	}
}

// BenchmarkCanonicalForm measures pattern canonicalization (the pattern-
// equality primitive).
func BenchmarkCanonicalForm(b *testing.B) {
	col := relpat.UniqueSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pattern.Canonical(col) == "" {
			b.Fatal("empty canonical form")
		}
	}
}

// BenchmarkExpandAbstract measures module inlining (Section 2.13.2).
func BenchmarkExpandAbstract(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.ExpandAbstract(relpat.UniqueSetModular(), relpat.SubsetAbstract()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogFixpoint measures a Datalog program end to end —
// lowering to ARC plus evaluation — on ancestor closure over a chain.
func BenchmarkDatalogFixpoint(b *testing.B) {
	prog := datalog.MustParse("A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	p := workload.Chain(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datalog.EvalPredicate(prog, datalog.EDB{"P": p}, "A"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifferentialPipeline measures one full differential trial:
// generate → parse → translate → evaluate through both engines.
func BenchmarkDifferentialPipeline(b *testing.B) {
	rng := workload.Rand(99)
	inst := qgen.RandomInstance(rng, 10, false)
	db := sqleval.DB{}
	cat := eval.NewCatalog()
	for _, r := range inst.Relations() {
		db[r.Name()] = r
		cat.AddRelation(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := qgen.Generate(rng)
		want, err := sqleval.EvalString(src, db)
		if err != nil {
			b.Fatal(err)
		}
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			b.Fatal(err)
		}
		got, err := eval.Eval(col, cat, convention.SQL())
		if err != nil {
			b.Fatal(err)
		}
		if !got.EqualBag(want) {
			b.Fatalf("divergence on %s", src)
		}
	}
}

// BenchmarkWALCommit measures the durable autocommit path: each
// iteration is one INSERT whose write set is journaled to the WAL before
// the commit is acknowledged, with and without fsync — the gap is the
// price of the kill -9 guarantee.
func BenchmarkWALCommit(b *testing.B) {
	ctx := context.Background()
	for _, fsync := range []bool{false, true} {
		name := "nofsync"
		if fsync {
			name = "fsync"
		}
		b.Run(name, func(b *testing.B) {
			db, err := engine.OpenDurable(b.TempDir(), storage.Options{Fsync: fsync},
				relation.New("R", "A", "B"))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			stmt, err := db.Prepare(engine.LangSQL, "insert into R values ($1, $2)")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Exec(ctx, i, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALColdStartReplay measures recovery: each iteration reopens
// a storage directory whose state is one checkpoint plus a 2000-commit
// WAL, replaying the log to the last committed generation.
func BenchmarkWALColdStartReplay(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	db, err := engine.OpenDurable(dir, storage.Options{}, relation.New("R", "A", "B"))
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := db.Prepare(engine.LangSQL, "insert into R values ($1, $2)")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := stmt.Exec(ctx, i, i); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := engine.OpenDurable(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rs, _ := db2.RecoveryStats()
		if rs.Records != 2000 {
			b.Fatalf("replayed %d records, want 2000", rs.Records)
		}
		db2.Close()
	}
}

// BenchmarkRangeScanVsFullScan pins the planner's range lowering on a
// 100k-row relation: the "rangescan" variant's BETWEEN-style conjuncts
// lower to an ordered-index RangeScan touching ~100 rows; the
// "fullscan" variant computes the same rows through a semantically
// identical predicate (A + 0 defeats the lowering) and pays the full
// filtered scan.
func BenchmarkRangeScanVsFullScan(b *testing.B) {
	ctx := context.Background()
	const rows = 100_000
	r := relation.New("R", "A", "B")
	for i := 0; i < rows; i++ {
		r.Add(i, i%997)
	}
	db := engine.Open(r)
	run := func(src string, wantRange bool) func(*testing.B) {
		return func(b *testing.B) {
			stmt, err := db.Prepare(engine.LangSQL, src)
			if err != nil {
				b.Fatal(err)
			}
			if text, err := stmt.Explain(); err != nil ||
				strings.Contains(text, "RangeScan") != wantRange {
				b.Fatalf("Explain (err=%v, wantRange=%v):\n%s", err, wantRange, text)
			}
			// Warm once so the lazy ordered-index build is not billed to
			// the first iteration.
			if _, err := stmt.QueryAll(ctx, 50_000, 50_100); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := stmt.QueryAll(ctx, 50_000, 50_100)
				if err != nil {
					b.Fatal(err)
				}
				if res.Card() != 100 {
					b.Fatalf("rows = %d, want 100", res.Card())
				}
			}
		}
	}
	b.Run("rangescan", run("select R.A, R.B from R where R.A >= $1 and R.A < $2", true))
	b.Run("fullscan", run("select R.A, R.B from R where R.A + 0 >= $1 and R.A + 0 < $2", false))
}

// TestRangeScanSpeedup is the acceptance gate behind
// BenchmarkRangeScanVsFullScan: on the 100k-row selective range, the
// lowered RangeScan must beat the filtered full scan by at least 10×.
// The observed gap is ~300×, so the 10× floor leaves room for load
// noise without ever passing a broken lowering.
func TestRangeScanSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ctx := context.Background()
	const rows = 100_000
	r := relation.New("R", "A", "B")
	for i := 0; i < rows; i++ {
		r.Add(i, i%997)
	}
	db := engine.Open(r)
	timeQuery := func(src string) time.Duration {
		t.Helper()
		stmt, err := db.Prepare(engine.LangSQL, src)
		if err != nil {
			t.Fatal(err)
		}
		// Warm: ordered-index build and any lazy state.
		if _, err := stmt.QueryAll(ctx, 50_000, 50_100); err != nil {
			t.Fatal(err)
		}
		const iters = 20
		start := time.Now()
		for i := 0; i < iters; i++ {
			res, err := stmt.QueryAll(ctx, 50_000, 50_100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Card() != 100 {
				t.Fatalf("rows = %d, want 100", res.Card())
			}
		}
		return time.Since(start) / iters
	}
	ranged := timeQuery("select R.A, R.B from R where R.A >= $1 and R.A < $2")
	full := timeQuery("select R.A, R.B from R where R.A + 0 >= $1 and R.A + 0 < $2")
	t.Logf("rangescan %v/query, fullscan %v/query (%.0fx)", ranged, full, float64(full)/float64(ranged))
	if full < 10*ranged {
		t.Fatalf("RangeScan is only %.1fx faster than the full scan, want >= 10x (range %v, full %v)",
			float64(full)/float64(ranged), ranged, full)
	}
}
