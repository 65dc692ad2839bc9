package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/convention"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestConcurrentSessionsOneDB is the concurrency contract: 8 sessions
// over ONE DB execute prepared statements in parallel — sharing the same
// *Stmt values (shared compiled plans, the ARC and Datalog ones held by
// their eval.Prepared, shared lazy relation indexes) across all three
// languages, streaming cursors and bulk reads mixed — and must pass under
// -race with every session seeing exactly the single-threaded answers.
// Under -race it holds that nothing writes a held plan after Prepare.
func TestConcurrentSessionsOneDB(t *testing.T) {
	rng := workload.Rand(99)
	r := workload.RandomBinary(rng, "R", "A", "B", 4000, 4000, 60)
	s := workload.RandomBinary(rng, "S", "B", "C", 2000, 60, 12)
	g := workload.RandomBinary(rng, "G", "A", "B", 600, 60, 100)
	db := Open(r, s, g, chain(40)).SetConventions(convention.SetLogic())

	ctx := context.Background()
	point, err := db.Prepare(LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	join, err := db.Prepare(LangSQL,
		"select R.A, S.C from R, S where R.B = S.B and S.C = $1")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Prepare(LangSQL, `with recursive tc(s, t) as (
		select P.s, P.t from P union select tc.s, P.t from tc, P where tc.t = P.s
	) select tc.s, tc.t from tc where tc.s = $1`)
	if err != nil {
		t.Fatal(err)
	}
	arcTC, err := db.Prepare(LangARC,
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	if err != nil {
		t.Fatal(err)
	}
	dlTC, err := db.Prepare(LangDatalog, "A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y).")
	if err != nil {
		t.Fatal(err)
	}
	// three_lang's ARC and Datalog joins and grouped sums (the Datalog one
	// a plan.Lookup): every session runs the plans each statement holds.
	var held []*Stmt
	for _, sh := range workload.ThreeLangShapes[:2] {
		for _, src := range []struct {
			lang Lang
			src  string
		}{{LangARC, sh.ARC}, {LangDatalog, sh.Datalog}} {
			stmt, err := db.Prepare(src.lang, src.src)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, stmt)
		}
	}

	// Single-threaded goldens.
	goldPoint := map[int]string{}
	for k := 0; k < 8; k++ {
		rel, err := point.QueryAll(ctx, k*97%4000)
		if err != nil {
			t.Fatal(err)
		}
		goldPoint[k] = rel.String()
	}
	goldJoin := map[int]string{}
	for k := 0; k < 4; k++ {
		rel, err := join.QueryAll(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		goldJoin[k] = rel.String()
	}
	goldRec := map[int]string{}
	for k := 0; k < 4; k++ {
		rel, err := rec.QueryAll(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		goldRec[k] = rel.String()
	}
	goldARC, err := arcTC.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	goldDL, err := dlTC.QueryAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	goldHeld := make([]*relation.Relation, len(held))
	for k, stmt := range held {
		if goldHeld[k], err = stmt.QueryAll(ctx); err != nil {
			t.Fatal(err)
		}
	}

	const sessions, iters = 8, 30
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for sid := 0; sid < sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (sid + i) % 6 {
				case 0:
					k := sid % 8
					rel, err := point.QueryAll(ctx, k*97%4000)
					if err != nil {
						errc <- err
						return
					}
					if rel.String() != goldPoint[k] {
						errc <- fmt.Errorf("session %d: point lookup diverged", sid)
						return
					}
				case 1:
					k := sid % 4
					rel, err := join.QueryAll(ctx, k)
					if err != nil {
						errc <- err
						return
					}
					if rel.String() != goldJoin[k] {
						errc <- fmt.Errorf("session %d: join diverged", sid)
						return
					}
				case 2:
					k := sid % 4
					rel, err := rec.QueryAll(ctx, k)
					if err != nil {
						errc <- err
						return
					}
					if rel.String() != goldRec[k] {
						errc <- fmt.Errorf("session %d: recursive CTE diverged", sid)
						return
					}
				case 3:
					// Streaming cursor, closed early half the time.
					rows, err := point.Query(ctx, (sid*31+i)%4000)
					if err != nil {
						errc <- err
						return
					}
					n := 0
					for rows.Next() {
						n++
						if i%2 == 0 && n == 1 {
							break
						}
					}
					if err := rows.Close(); err != nil {
						errc <- err
						return
					}
				case 4:
					var rel *relation.Relation
					var err error
					if sid%2 == 0 {
						rel, err = arcTC.QueryAll(ctx)
						if err == nil && rel.String() != goldARC.String() {
							err = fmt.Errorf("session %d: ARC fixpoint diverged", sid)
						}
					} else {
						rel, err = dlTC.QueryAll(ctx)
						if err == nil && rel.String() != goldDL.String() {
							err = fmt.Errorf("session %d: Datalog fixpoint diverged", sid)
						}
					}
					if err != nil {
						errc <- err
						return
					}
				case 5:
					// Half the sessions stream, half materialize.
					k := (sid + i) % len(held)
					var rel *relation.Relation
					var err error
					if sid%2 == 0 {
						rel, err = held[k].QueryAll(ctx)
					} else if rows, qerr := held[k].Query(ctx); qerr != nil {
						err = qerr
					} else {
						rel, err = drainBag(rows)
					}
					if err == nil && !rel.EqualBag(goldHeld[k]) {
						err = fmt.Errorf("session %d: %s diverged", sid, held[k].Source())
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(sid)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentPrepareSharedCache hammers Prepare for the same and
// different sources from many goroutines while a writer inserts
// (invalidating entries), under -race.
func TestConcurrentPrepareSharedCache(t *testing.T) {
	r := relation.New("R", "A", "B").Add(1, 2)
	db := Open(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("select R.A from R where R.B = $1 -- v%d", g%3)
				stmt, err := db.Prepare(LangSQL, src)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := stmt.QueryAll(context.Background(), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Add(i+10, i)
		}
	}()
	wg.Wait()
}

// TestPrepareSingleFlight: compilation is one per key at a time. 32
// goroutines preparing one text nobody has prepared yet compile it once
// — whoever arrives during the compilation waits for it and counts as a
// hit — and share one statement; a text that does not compile is not
// cached and every caller gets Prepare's error.
func TestPrepareSingleFlight(t *testing.T) {
	db := Open(relation.New("R", "A", "B").Add(1, 2))
	const n = 32
	prepareAll := func(src string) (stmts [n]*Stmt, errs [n]error) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				stmts[i], errs[i] = db.Prepare(LangSQL, src)
			}()
		}
		close(start)
		wg.Wait()
		return stmts, errs
	}
	before := db.Stats()
	stmts, errs := prepareAll("select R.A, R.B from R where R.A = $1 and R.B >= R.A")
	st := db.Stats()
	if misses, hits := compilations(db)-(before.Prepares-before.CacheHits), st.CacheHits-before.CacheHits; misses != 1 || hits != n-1 {
		t.Fatalf("%d goroutines, one text: %d compilations and %d hits, want 1 and %d", n, misses, hits, n-1)
	}
	for i := range n {
		if errs[i] != nil || stmts[i] != stmts[0] {
			t.Fatalf("goroutine %d: stmt %p err %v, want the shared statement %p", i, stmts[i], errs[i], stmts[0])
		}
	}
	_, errs = prepareAll("select R.A from")
	for i := range n {
		if errs[i] == nil || errs[i].Error() != errs[0].Error() {
			t.Fatalf("goroutine %d: err %v, want Prepare's error %v", i, errs[i], errs[0])
		}
	}
	if db.cache.Len() != 1 || len(db.cache.flights) != 0 {
		t.Fatalf("cache holds %d statements and %d flights after a failed prepare, want 1 and 0", db.cache.Len(), len(db.cache.flights))
	}
}
