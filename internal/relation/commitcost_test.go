package relation

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/value"
)

// commitStore builds a Store over one relation R(a, b) of the given size,
// a unique in column a.
func commitStore(rows int) *Store {
	r := New("R", "a", "b")
	for i := 0; i < rows; i++ {
		r.Insert(Tuple{value.Int(int64(i)), value.Int(int64(i % 97))})
	}
	return NewStore(r)
}

// commitOneRow autocommits the insertion of row i and returns the new head.
func commitOneRow(tb testing.TB, st *Store, i int) *Relation {
	ws := st.Begin()
	if err := ws.Insert("R", Tuple{value.Int(int64(i)), value.Int(0)}, 1); err != nil {
		tb.Fatal(err)
	}
	snap, err := st.Commit(ws)
	if err != nil {
		tb.Fatal(err)
	}
	return snap.Relation("R")
}

// probeHead runs one point probe and one 100-row range probe on column a.
func probeHead(tb testing.TB, r *Relation, at int) {
	n := 0
	count := func(Tuple, int) bool { n++; return true }
	r.Probe([]int{0}, []value.Value{value.Int(int64(at))}, count)
	r.RangeProbe(0, value.Int(int64(at)), value.Int(int64(at+100)), true, false, count)
	if n != 101 {
		tb.Fatalf("probes at %d saw %d rows, want 1 + 100", at, n)
	}
}

// TestCommitCostDoesNotScaleWithRelation is the guard on "a commit costs
// what it changes": the heap a one-row commit and the first reads of the
// new head allocate, averaged over four fold budgets so the folds and
// the index rebuilds after them are in the figure, may grow with √rows
// (the delta a version copies, the fold amortised over a budget) but not
// with rows. A Clone that copies the relation reads 16× between the two
// sizes, and megabytes in absolute terms.
func TestCommitCostDoesNotScaleWithRelation(t *testing.T) {
	perCommit := func(rows int) float64 {
		st := commitStore(rows)
		probeHead(t, commitOneRow(t, st, rows), rows/2) // the hand-off and the first index builds
		commits := 4 * foldBudget(rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= commits; i++ {
			probeHead(t, commitOneRow(t, st, rows+i), (rows/2+i*7919)%(rows-100))
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(commits)
	}
	small, large := perCommit(4000), perCommit(64000)
	t.Logf("heap per {commit, point probe, range probe}: %.1f KB at 4 000 rows, %.1f KB at 64 000 (%.1f×)",
		small/1024, large/1024, large/small)
	if large > 5*small || large > 64<<10 {
		t.Fatalf("a one-row commit allocates %.0f B at 64 000 rows against %.0f B at 4 000: want at most 5× and at most 64 KB", large, small)
	}
}

// benchCommits calls f for b.N successive row numbers against a warmed-up
// Store of the given size, replacing the Store (timer stopped) every
// rows/4 calls so the relation stays the size the benchmark is named for.
func benchCommits(b *testing.B, f func(b *testing.B, st *Store, rows, i int)) {
	for _, rows := range []int{4000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var st *Store
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%(rows/4) == 0 {
					b.StopTimer()
					st = commitStore(rows)
					probeHead(b, commitOneRow(b, st, rows), rows/2)
					b.StartTimer()
				}
				f(b, st, rows, rows+1+i%(rows/4))
			}
		})
	}
}

// BenchmarkCommitOneRow is the write half of the guard above as ns/op and
// B/op, with the 100 000-row point arcbench's workloads do not reach.
func BenchmarkCommitOneRow(b *testing.B) {
	benchCommits(b, func(b *testing.B, st *Store, _, i int) { commitOneRow(b, st, i) })
}

// BenchmarkProbeAfterCommit times the first point and range probe on the
// head a one-row commit just published — where a head without its
// predecessor's indexes pays to rebuild them.
func BenchmarkProbeAfterCommit(b *testing.B) {
	benchCommits(b, func(b *testing.B, st *Store, rows, i int) {
		b.StopTimer()
		head := commitOneRow(b, st, i)
		b.StartTimer()
		probeHead(b, head, i*7919%(rows-100))
	})
}
