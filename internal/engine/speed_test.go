package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/workload"
)

// TestPreparedAtLeast5xFasterThanReparse pins the issue's acceptance bar
// in a test: Prepare once + Query N times must be at least 5× faster
// than N× parse + plan + execute on a parameterized point lookup. The
// true margin is more than an order of magnitude (parse + plan per call
// vs one hash probe), so the 5× assertion has plenty of headroom;
// best-of-three rounds smooths scheduler noise.
func TestPreparedAtLeast5xFasterThanReparse(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := workload.Rand(23)
	r := workload.RandomBinary(rng, "R", "A", "B", 20000, 20000, 64)
	db := Open(r)
	stmt, err := db.Prepare(LangSQL, "select R.A, R.B from R where R.A = $1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rels := map[string]*relation.Relation{"R": r}

	const iters = 1500
	timed := func(f func() error) time.Duration {
		start := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	preparedLoop := func() error {
		for i := 0; i < iters; i++ {
			if _, err := stmt.QueryAll(ctx, i%20000); err != nil {
				return err
			}
		}
		return nil
	}
	reparseLoop := func() error {
		for i := 0; i < iters; i++ {
			q, err := sql.Parse(fmt.Sprintf("select R.A, R.B from R where R.A = %d", i%20000))
			if err != nil {
				return err
			}
			p, err := plan.CompileSchema(q, rels)
			if err != nil {
				return err
			}
			if _, err := p.ExecuteOn(rels, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	// Both loops run back to back inside each round and the ratio is
	// taken per round, so a load spike or frequency shift hits both
	// paths alike instead of whichever happened to be measuring — the
	// all-prepared-then-all-reparse form flaked whenever the machine
	// drifted between the two measurement blocks. Best-of-five rounds
	// smooths the remaining scheduler noise.
	ratio, prepared, reparse := 0.0, time.Duration(0), time.Duration(0)
	for round := 0; round < 5; round++ {
		p := timed(preparedLoop)
		q := timed(reparseLoop)
		if r := float64(q) / float64(p); r > ratio {
			ratio, prepared, reparse = r, p, q
		}
	}
	t.Logf("prepared %v vs reparse %v for %d executions → %.1f×", prepared, reparse, iters, ratio)
	// The race detector instruments the lock/atomic-heavy probe-and-
	// insert path much harder than the allocation-heavy parser, which
	// compresses the ratio; the ≥ 5× acceptance bar is pinned on the
	// uninstrumented build (and by BenchmarkPreparedVsReparse), with a
	// reduced floor under -race so the instrumented CI pass still
	// guards against the prepared path regressing to re-plan-per-call.
	floor := 5.0
	if raceEnabled {
		floor = 2.5
	}
	if ratio < floor {
		t.Fatalf("prepared path only %.1f× faster than re-parse, want ≥ %.1f×", ratio, floor)
	}
}
