package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/alt"
	"repro/internal/arc"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/qgen"
	"repro/internal/relation"
	"repro/internal/sql2arc"
	"repro/internal/value"
	"repro/internal/workload"
)

// The tests below hold an ARC or Datalog cursor to what QueryAll and the
// reference evaluator return: a compiled collection's head tuples stream
// off the evaluator as the cursor is drained (eval.Prepared.Stream), under
// set conventions through a seen-set, and nothing holds the result but
// the cursor's consumer.

// streamConventions are the conventions a stream is checked under: SQL's
// bags, sets with three-valued logic, and Soufflé's.
var streamConventions = []convention.Conventions{convention.SQL(), convention.SetLogic(), convention.Souffle()}

// drainBag drains a cursor into a relation, one occurrence per Next, and
// closes it.
func drainBag(rows *Rows) (*relation.Relation, error) {
	out := relation.New("cursor", rows.Columns()...)
	for rows.Next() {
		out.Insert(relation.Tuple(rows.Row()))
	}
	return out, rows.Close()
}

// streamAgrees holds the cursor and QueryAll of col, prepared under conv
// over rels, to eval.EvalReference: all three return one bag, or all
// three fail.
func streamAgrees(t *testing.T, what string, rels []*relation.Relation, col *alt.Collection, conv convention.Conventions) {
	t.Helper()
	cat := eval.NewCatalog()
	for _, r := range rels {
		cat.AddRelation(r)
	}
	want, errRef := eval.EvalReference(col, cat, conv)
	stmt, err := Open(rels...).PrepareARCCollection(col, conv)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", what, err)
	}
	ctx := context.Background()
	all, errAll := stmt.QueryAll(ctx)
	var streamed *relation.Relation
	rows, errStream := stmt.Query(ctx)
	if errStream == nil {
		streamed, errStream = drainBag(rows)
	}
	if (errRef == nil) != (errAll == nil) || (errRef == nil) != (errStream == nil) {
		t.Fatalf("%s under %s: reference error %v, QueryAll error %v, cursor error %v\n%s", what, conv, errRef, errAll, errStream, col)
	}
	if errRef != nil {
		return
	}
	if !all.EqualBag(want) || !streamed.EqualBag(want) {
		t.Fatalf("%s under %s: bags differ\n%s\nreference:\n%s\nQueryAll:\n%s\ncursor:\n%s", what, conv, col, want, all, streamed)
	}
}

// lowerDatalog lowers the definition of pred in a Datalog program to ARC
// over the relations' schemas.
func lowerDatalog(t testing.TB, src, pred string, rels []*relation.Relation) *alt.Collection {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("%q does not parse: %v", src, err)
	}
	schemas := map[string][]string{}
	for _, r := range rels {
		schemas[r.Name()] = r.Attrs()
	}
	col, err := datalog.ToARC(p, schemas, pred)
	if err != nil {
		t.Fatalf("%q does not lower: %v", src, err)
	}
	return col
}

// TestCollectionStreamAgrees: over TestScopeCompilerDifferentialARC's
// corpus (generated SQL translated to ARC) and TestDecorrelationDifferential's
// generated Datalog rules, under bags, sets and Soufflé's conventions, the
// bag an ARC cursor streams is QueryAll's and eval.EvalReference's.
func TestCollectionStreamAgrees(t *testing.T) {
	rng := workload.Rand(424242)
	for i := 0; i < 200; i++ {
		src := qgen.Generate(rng)
		rels := qgen.RandomInstance(rng, 10, i%4 == 0).Relations()
		col, err := sql2arc.TranslateString(src)
		if err != nil {
			t.Fatalf("trial %d: sql2arc rejected %q: %v", i, src, err)
		}
		for _, conv := range streamConventions {
			streamAgrees(t, src, rels, col, conv)
		}
	}
	rng = workload.Rand(2121)
	for i := 0; i < 400; i++ {
		src := qgen.GenerateDatalog(rng)
		rels := qgen.RandomInstance(rng, 3+rng.Intn(10), i%3 == 0).Relations()
		col := lowerDatalog(t, src, "Q", rels)
		for _, conv := range streamConventions {
			streamAgrees(t, src, rels, col, conv)
		}
	}
}

// TestCollectionCursorInTxHoldsItsRelations is
// TestJoinCursorInTxHoldsItsBuildSide for ARC and Datalog: their cursors
// evaluate while they are drained, and inside a transaction they read the
// working copies through the clones WriteSet.Held took when they opened,
// so deletes, updates and inserts later in the same transaction change no
// row they stream.
func TestCollectionCursorInTxHoldsItsRelations(t *testing.T) {
	for _, c := range []struct {
		name string
		lang Lang
		src  string
	}{
		{"ARC join", LangARC, "{Q(A, C) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ Q.C = s.C]}"},
		{"Datalog join", LangDatalog, "Q(a,c) :- R(a,b), S(b,c)."},
		{"ARC grouped sum", LangARC, "{Q(B, sm) | ∃s ∈ S, γ s.B [Q.B = s.B ∧ Q.sm = sum(s.C)]}"},
	} {
		ctx := context.Background()
		r, s := relation.New("R", "A", "B"), relation.New("S", "B", "C")
		for i := range 100 {
			r.Add(i, i)
			s.Add(i, i)
		}
		tx, err := Open(r, s).Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The inserts force both working copies, which the cursor reads.
		for _, w := range []string{"insert into R values (1000, 1000)", "insert into S values (1000, 1000)"} {
			if _, err := tx.Exec(ctx, LangSQL, w); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := tx.Query(ctx, c.lang, c.src)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		for rows.Next() {
			if a, b := rows.Row()[0], rows.Row()[1]; !a.Equal(b) {
				t.Fatalf("%s: row %v", c.name, rows.Row())
			}
			if seen[rows.Row()[0].AsInt()]++; len(seen) == 1 {
				for _, w := range []string{
					"delete from S where S.B < 50",
					"update S set C = S.C + 1 where S.B >= 50",
					"insert into S values (0, 0)",
					"insert into S values (99, 99)",
				} {
					if _, err := tx.Exec(ctx, LangSQL, w); err != nil {
						t.Fatalf("%s: %s: %v", c.name, w, err)
					}
				}
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wrong := 0
		for a, n := range seen {
			if n != 1 || a >= 100 && a != 1000 {
				wrong++
			}
		}
		if len(seen) != 101 || wrong > 0 {
			t.Errorf("%s: cursor streamed %d distinct rows, %d of them repeated or foreign; want the 101 that existed when it opened, once each",
				c.name, len(seen), wrong)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// collectionJoins are an ARC and a Datalog join over R(A,B) and S(B,C),
// the cursors of the cancellation and Close tests.
var collectionJoins = []struct {
	lang Lang
	src  string
}{
	{LangARC, "{Q(A, C) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ Q.C = s.C]}"},
	{LangDatalog, "Q(a,c) :- R(a,b), S(b,c)."},
}

// joinDB holds R with n rows and S with the 7 rows R's B column meets.
func joinDB(n int) *DB {
	r, s := relation.New("R", "A", "B"), relation.New("S", "B", "C")
	for i := 0; i < n; i++ {
		r.Add(i, i%7)
	}
	for i := 0; i < 7; i++ {
		s.Add(i, i)
	}
	return Open(r, s)
}

// TestCancelMidStreamCollections is TestCancelMidStream for an ARC and a
// Datalog join, whose cursors stream off the evaluator.
func TestCancelMidStreamCollections(t *testing.T) {
	db := joinDB(5000)
	for _, c := range collectionJoins {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.Query(ctx, c.lang, c.src)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for rows.Next() {
			if got++; got == 3 {
				cancel()
			}
			if got > 10 {
				break
			}
		}
		if got > 10 {
			t.Fatalf("%v: cursor kept streaming after cancellation (%d rows)", c.lang, got)
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("%v: Err = %v, want context.Canceled", c.lang, rows.Err())
		}
		if err := rows.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: Close = %v, want context.Canceled", c.lang, err)
		}
		if rows.Next() {
			t.Fatalf("%v: Next after Close returned true", c.lang)
		}
		cancel()
	}
}

// pollCtx counts the engine's cancellation polls and never cancels.
type pollCtx struct {
	context.Context
	polls atomic.Int64
}

// Done returns a non-nil channel so the engine installs its poll.
func (c *pollCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCtx) Err() error {
	c.polls.Add(1)
	return nil
}

// TestCloseMidStreamReleasesEvaluator: Close on a half-read ARC or
// Datalog cursor stops the evaluation where it stands — it polls the
// context no more, as it would every 64 tuples while it ran on through
// R's 20 000 rows — and ends the goroutine the cursor pulled it on.
func TestCloseMidStreamReleasesEvaluator(t *testing.T) {
	db := joinDB(20000)
	for _, c := range collectionJoins {
		before := runtime.NumGoroutine()
		ctx := &pollCtx{Context: context.Background()}
		rows, err := db.Query(ctx, c.lang, c.src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3 && rows.Next(); i++ {
		}
		polls := ctx.polls.Load()
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if more := ctx.polls.Load() - polls; more > 1 {
			t.Errorf("%v: the evaluation polled %d more times after Close: it ran on", c.lang, more)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: %d goroutines after Close, %d before the cursor opened", c.lang, after, before)
		}
	}
}

// TestCollectionCursorAllocations: draining a compiled ARC join's cursor
// builds no result. Under bags it allocates as often at 10 000 rows as at
// 1 000; under sets once per distinct row — the seen-set's copy — plus
// O(log N) for the set's growth.
func TestCollectionCursorAllocations(t *testing.T) {
	const src = "{Q(A, C) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ Q.C = s.C]}"
	allocs := func(n int, conv convention.Conventions) float64 {
		r, s := relation.New("R", "A", "B"), relation.New("S", "B", "C")
		for i := 0; i < n; i++ {
			r.Add(i, i*7%n) // a permutation of 0..n-1, n prime to 7
			s.Add(i, 2*i)
		}
		stmt, err := Open(r, s).SetConventions(conv).Prepare(LangARC, src)
		if err != nil {
			t.Fatal(err)
		}
		drain := func() {
			rows, err := stmt.Query(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for rows.Next() {
				got++
			}
			if err := rows.Close(); err != nil || got != n {
				t.Fatalf("join: %d rows, err %v; want %d", got, err, n)
			}
		}
		drain() // builds S's index outside the measurement
		return testing.AllocsPerRun(20, drain)
	}
	small, big := allocs(1000, convention.SQL()), allocs(10000, convention.SQL())
	set := allocs(10000, convention.SetLogic())
	t.Logf("bags: %.0f allocations at 1 000 rows, %.0f at 10 000; sets: %.0f at 10 000", small, big, set)
	// The count is the process's: under -race a stray background
	// allocation now and then moves it by one, where a per-row allocation
	// would add 9 000.
	if big > small+2 {
		t.Errorf("under bags the cursor allocates %.0f times over 10 000 rows and %.0f over 1 000: it allocates per row", big, small)
	}
	if limit := big + 10000 + 8*math.Log2(10000); set > limit {
		t.Errorf("under sets the cursor allocates %.0f times over 10 000 distinct rows, more than %.0f", set, limit)
	}
}

// FuzzCollectionStream decodes bytes into a convention, a statement —
// one of three_lang's ARC and Datalog spellings (its join, grouped sum and
// transitive closure) or a generated SQL query translated to ARC, from the
// core grammar under an odd seed and the explicit-join grammar (LEFT and
// FULL joins) under an even one — and a small instance of R(A,B), S(B,C),
// T(A,C), G(A,B) and P(s,t) over NULL, small ints and 1.0, with
// duplicates, and holds the statement's cursor and QueryAll to
// eval.EvalReference.
func FuzzCollectionStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 3, 2, 1, 0, 1, 2, 1, 0, 2, 2, 0})
	f.Add([]byte{1, 3, 0, 3, 1, 2, 0, 3, 1, 2, 1, 3, 1, 5, 0, 3, 2, 4, 1})
	f.Add([]byte{2, 4, 0, 4, 1, 2, 0, 4, 2, 3, 0, 4, 3, 1, 0, 4, 3, 3, 0})
	f.Add([]byte{1, 5, 0, 4, 1, 2, 0, 4, 2, 1, 0, 4, 0, 1, 1, 4, 1, 4, 0})
	f.Add([]byte{0, 6, 9, 0, 1, 2, 1, 1, 2, 4, 0, 2, 1, 3, 1, 0, 5, 1, 0})
	f.Add([]byte{2, 6, 77, 0, 0, 1, 0, 1, 3, 1, 0, 2, 1, 1, 1, 2, 1, 2, 0})
	for conv := range byte(len(streamConventions)) {
		// Seed 78: T t0 left join S s1 on t0.C = s1.B left join S s2 on
		// s1.B = s2.C and s2.B = 2 — NULL keys, duplicates, 1.0 against 1.
		f.Add([]byte{conv, 6, 78, 2, 2, 1, 0, 2, 1, 0, 0, 2, 4, 2, 1, 2, 5, 3, 0,
			1, 1, 1, 0, 1, 4, 1, 1, 1, 0, 2, 0, 1, 2, 4, 0, 1, 4, 0, 0})
		// Seed 104: S s0 join S s1 on s0.B = s1.B full join S s2 on
		// s1.C = s2.B and s2.C = 2.
		f.Add([]byte{conv, 6, 104, 1, 1, 2, 0, 1, 1, 4, 1, 1, 2, 4, 0, 1, 0, 2, 0,
			1, 4, 4, 0, 1, 2, 0, 0, 1, 3, 5, 0})
	}
	domain := []value.Value{value.Null(), value.Int(0), value.Int(1), value.Float(1), value.Int(2), value.Int(3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		conv := streamConventions[next()%len(streamConventions)]
		shapes := workload.ThreeLangShapes
		shape, seed := next()%(2*len(shapes)+1), next()
		rels := []*relation.Relation{
			relation.New("R", "A", "B"), relation.New("S", "B", "C"), relation.New("T", "A", "C"),
			relation.New("G", "A", "B"), relation.New("P", "s", "t"),
		}
		for i := 0; i < 48 && len(data) > 0; i++ {
			r := rels[next()%len(rels)]
			r.InsertMult(relation.Tuple{domain[next()%len(domain)], domain[next()%len(domain)]}, 1+next()%2)
		}
		var what string
		var col *alt.Collection
		switch sh := shape / 2; {
		case sh == len(shapes):
			what = qgen.Generate(workload.Rand(int64(seed)))
			if seed%2 == 0 {
				what = qgen.GenerateJoins(workload.Rand(int64(seed)))
			}
			c, err := sql2arc.TranslateString(what)
			if err != nil {
				t.Fatalf("sql2arc rejected %q: %v", what, err)
			}
			col = c
		case shape%2 == 0:
			what = shapes[sh].ARC
			c, err := arc.ParseCollection(what)
			if err != nil {
				t.Fatal(err)
			}
			col = c
		default:
			what = shapes[sh].Datalog
			pred := "Q"
			if shapes[sh].Name == "tc" {
				pred = "A"
			}
			col = lowerDatalog(t, what, pred, rels)
		}
		streamAgrees(t, what, rels, col, conv)
	})
}
