package plan

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/value"
)

// groupNodes lists the γ operators of the plan tree below n.
func groupNodes(n Node) []*groupNode {
	var gs []*groupNode
	if g, ok := n.(*groupNode); ok {
		gs = append(gs, g)
	}
	kids, _ := inputs(n)
	for _, k := range kids {
		gs = append(gs, groupNodes(k)...)
	}
	return gs
}

// projectAll makes every γ of p project its input rows, as one over a
// computed key or argument does.
func projectAll(p *Plan) {
	for _, g := range groupNodes(p.root) {
		for i := range g.keys {
			g.keys[i].col = 0
		}
		for i := range g.aggs {
			g.aggs[i].col = 0
		}
		g.layout()
	}
}

// groupTestDB holds R(A, B) and S(B, C) with NULLs in every column, rows
// of weight 2 and 3, a float key equal to an int one, and a string in
// Bad.B that no sum can add.
func groupTestDB() map[string]*relation.Relation {
	null, i, f := value.Null(), value.Int, value.Float
	r := relation.New("R", "A", "B")
	for _, t := range []relation.Tuple{{i(1), i(10)}, {i(1), i(20)}, {f(1), i(20)}, {i(2), null}, {null, i(5)}, {null, null}} {
		r.Insert(t)
	}
	r.InsertMult(relation.Tuple{i(2), i(30)}, 3)
	r.InsertMult(relation.Tuple{null, i(5)}, 2)
	s := relation.New("S", "B", "C")
	for _, t := range []relation.Tuple{{i(10), i(7)}, {i(20), i(7)}, {i(20), null}, {i(30), i(8)}, {null, i(9)}} {
		s.Insert(t)
	}
	s.InsertMult(relation.Tuple{i(30), i(9)}, 2)
	bad := relation.New("Bad", "A", "B")
	bad.Add(1, 2)
	bad.Add(1, "x")
	return map[string]*relation.Relation{"R": r, "S": s, "Bad": bad}
}

// TestGroupReadsColumnsInPlace pins which γ reads its input rows in
// place (every key and aggregate argument a column) and that it answers
// what the same γ answers projecting its input first: the same groups
// over NULL keys, bag weights and count(distinct …), in the same order.
func TestGroupReadsColumnsInPlace(t *testing.T) {
	db := groupTestDB()
	cases := []struct {
		src     string
		inPlace bool
	}{
		{"select R.A, count(*) n from R group by R.A", true},
		{"select R.A, sum(R.B) s, avg(R.B) a, min(R.B) mn, max(R.B) mx, count(R.B) c, count(distinct R.B) d from R group by R.A", true},
		{"select R.B, R.A, count(*) n from R group by R.A, R.B", true},
		{"select r.A, count(distinct s.C) d, sum(s.C) sm from R r, S s where r.B = s.B group by r.A", true},
		{"select R.A, count(*) n from R group by R.A having count(*) >= 2", true},
		{"select count(*) n, sum(R.B) s, count(distinct R.A) d from R", true},
		{"select R.A + 1, count(*) n from R group by R.A + 1", false},
		{"select R.A, sum(R.B * 2) s from R group by R.A", false},
	}
	for _, c := range cases {
		p, err := Compile(sql.MustParse(c.src), db)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		gs := groupNodes(p.root)
		if len(gs) != 1 || gs[0].inPlace != c.inPlace {
			t.Fatalf("%s: γ in place %v, want %v", c.src, len(gs) == 1 && gs[0].inPlace, c.inPlace)
		}
		got := rendered(t, p, db, c.src, nil)
		projectAll(p)
		if want := rendered(t, p, db, c.src, nil); got != want {
			t.Fatalf("%s: in place\n%s\nprojected\n%s", c.src, got, want)
		}
	}
}

// TestGroupInPlaceSumOverString: a sum or avg over a string fails the
// execution with the message the projecting γ gives, also when γ reads
// its input in place.
func TestGroupInPlaceSumOverString(t *testing.T) {
	db := groupTestDB()
	for _, src := range []string{
		"select Bad.A, sum(Bad.B) s from Bad group by Bad.A",
		"select Bad.A, count(*) n, avg(Bad.B) a from Bad group by Bad.A",
	} {
		p, err := Compile(sql.MustParse(src), db)
		if err != nil {
			t.Fatal(err)
		}
		if !groupNodes(p.root)[0].inPlace {
			t.Fatalf("%s: γ projects its input", src)
		}
		_, inPlace := p.ExecuteWith(nil, nil)
		projectAll(p)
		_, projected := p.ExecuteWith(nil, nil)
		if inPlace == nil || projected == nil || inPlace.Error() != projected.Error() {
			t.Fatalf("%s: in place %v, projected %v; want one error", src, inPlace, projected)
		}
		t.Logf("%s: %v", src, inPlace)
	}
}

// passNode streams its input as it is: a γ over one is not over a plain
// scan.
type passNode struct{ in Node }

func (n passNode) Schema() []ColID          { return n.in.Schema() }
func (n passNode) Run(ctx *runCtx) exec.Seq { return n.in.Run(ctx) }
func (n passNode) writeExplain(b *strings.Builder, depth int, tr *trace.Trace) {
	n.in.writeExplain(b, depth, tr)
}

// hashed makes every γ of p over a plain scan read the scan through a
// passNode, so that it finds each row's group by hashing, as a γ over any
// other input does, rather than reading the relation's group numbers. It
// returns the scans it wrapped.
func hashed(p *Plan) []*scanNode {
	var scans []*scanNode
	for _, g := range groupNodes(p.root) {
		if sn, ok := g.input.(*scanNode); ok {
			g.input = passNode{sn}
			scans = append(scans, sn)
		}
	}
	return scans
}

// numberedTestDB holds N(A, B, C), never cloned, and V, a version of it
// that is a base with dead rows under a delta: every key kind (NULL, 2
// and 2.0, strings), rows of weight 2 and 3, a key whose only base rows
// are dead and that reappears in the delta, one whose only base rows are
// dead and that does not, and a base tuple inserted again, which moves
// to the delta. Bad and BadV hold a string no sum can add, BadV's in its
// delta.
func numberedTestDB() map[string]*relation.Relation {
	null, i, f, s := value.Null(), value.Int, value.Float, value.Str
	rows := []relation.Tuple{
		{i(2), s("a"), i(10)}, {f(2), s("a"), i(20)}, {i(3), null, i(5)}, {null, s("b"), i(7)},
		{i(2), s("b"), null}, {null, null, f(1.5)}, {i(4), s("a"), i(1)}, {i(5), s("c"), i(2)},
		{s("2"), s("a"), i(3)}, {f(3), s("b"), i(4)}, {i(6), s("d"), i(8)}, {i(6), s("d"), i(9)},
	}
	n := relation.New("N", "A", "B", "C")
	for k, t := range rows {
		n.InsertMult(t, 1+k%3)
	}
	v := relation.New("V", "A", "B", "C")
	for k, t := range rows {
		v.InsertMult(t, 1+k%3)
	}
	_ = v.Clone() // v is now a base and an empty delta
	v.RemoveKeys([]relation.Tuple{rows[6], rows[7], rows[10], rows[11]})
	for _, t := range []relation.Tuple{
		{i(4), s("z"), i(11)},   // key 4: its only base row is dead
		{f(6), s("d"), i(12)},   // key 6 as 6.0, after its base rows died
		{i(7), null, i(13)},     // a new key
		{null, s("e"), null},    // the NULL key, in base and delta
		{f(2), s("a"), i(20)},   // a base tuple again: it moves to the delta
		{i(3), null, f(0.25)},   // a base key, a new tuple
		{s("2"), s("x"), i(14)}, // the string key "2"
	} {
		v.InsertMult(t, 2)
	}
	bad := relation.New("Bad", "A", "B")
	bad.Add(1, 2)
	bad.Add(1, "x")
	bad.Add(2, 3)
	// BadW holds its string in the delta, past dead base slots and past
	// the first stretches between two polls.
	badW := stretched("BadW")
	badW.Add(5, "x", 0)
	badV := relation.New("BadV", "A", "B")
	badV.Add(1, 2)
	badV.Add(2, 3)
	_ = badV.Clone()
	badV.Add(1, "x")
	badC := relation.New("BadC", "A", "B", "C")
	badC.Add(1, 2, 3)
	badC.Add(1, 4, "y")
	badC.Add(1, "x", 5)
	return map[string]*relation.Relation{"N": n, "V": v, "W": stretched("W"), "Bad": bad, "BadV": badV, "BadW": badW, "BadC": badC}
}

// stretched is a relation name(A, B, C) of 700 base rows under a delta of
// 120, long enough for the numbered γ to fold it in many stretches
// between two polls and in many blocks: dead base slots fall on the
// first and last slot of the base run and on either side of stretch and
// block boundaries (multiples of 64: 63/64, 127/128, 255/256), keys are
// ints, their float equals, strings and NULL, and a base tuple inserted
// again moves to the delta.
func stretched(name string) *relation.Relation {
	null, i, f, s := value.Null(), value.Int, value.Float, value.Str
	key := func(k int) value.Value {
		switch k % 11 {
		case 3:
			return f(float64(k % 13))
		case 7:
			return s(string(rune('a' + k%5)))
		case 9:
			return null
		}
		return i(int64(k % 13))
	}
	row := func(k int) relation.Tuple { return relation.Tuple{key(k), i(int64(k % 4)), i(int64(k))} }
	w := relation.New(name, "A", "B", "C")
	for k := 0; k < 700; k++ {
		w.InsertMult(row(k), 1+k%3)
	}
	_ = w.Clone() // w is now a base and an empty delta
	var dead []relation.Tuple
	for _, k := range []int{0, 1, 62, 63, 64, 65, 127, 128, 254, 255, 256, 257, 511, 512, 640, 699} {
		dead = append(dead, row(k))
	}
	w.RemoveKeys(dead)
	for k := 700; k < 820; k++ {
		w.InsertMult(row(k), 2)
	}
	w.InsertMult(row(300), 1) // a base tuple again
	return w
}

// TestNumberedGroupMatchesHashed holds the γ that reads a relation's group
// numbers to the γ that hashes each row, over a relation never cloned and
// over a base with dead rows under a delta: the same rows, kinds (2 or
// 2.0, as the group's first row has it), multiplicities and order, under
// bag and set semantics, for every aggregate function and for one and two
// key columns; the same Scan row counts when traced; the same error for a
// sum or avg over a string; and the same stop, early, on cancellation.
func TestNumberedGroupMatchesHashed(t *testing.T) {
	db := numberedTestDB()
	compile := func(src string) *Plan {
		p, err := CompileSchema(sql.MustParse(src), db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return p
	}
	funcs := map[exec.AggFunc]bool{}
	for _, rel := range []string{"N", "V", "W"} {
		for _, q := range []string{
			"select X.A, count(*) n from X group by X.A",
			"select X.B, X.A, count(*) n, sum(X.C) s from X group by X.A, X.B",
			"select X.A, sum(X.C) s, avg(X.C) a, min(X.C) mn, max(X.C) mx, count(X.C) c, count(distinct X.C) d from X group by X.A",
			"select X.B, min(X.A) mn, max(X.A) mx, count(distinct X.A) d from X group by X.B",
			"select X.A, count(*) n from X group by X.A having count(*) >= 2",
		} {
			src := strings.ReplaceAll(q, "X.", rel+".")
			src = strings.ReplaceAll(src, "from X", "from "+rel)
			for _, set := range []bool{false, true} {
				num, hash := compile(src), compile(src)
				scans := hashed(hash)
				if len(scans) != 1 {
					t.Fatalf("%s: γ does not read a plain scan:\n%s", src, num.Explain())
				}
				if set {
					for _, p := range []*Plan{num, hash} {
						groupNodes(p.root)[0].conv.Semantics = convention.Set
					}
				}
				for _, a := range groupNodes(num.root)[0].gaggs {
					funcs[a.Func] = true
				}
				got, want := rendered(t, num, db, src, nil), rendered(t, hash, db, src, nil)
				if got != want {
					t.Errorf("%s (set %v):\n%s\nnumbered\n%s\nhashed\n%s", src, set, db[rel], got, want)
				}
				// With a check, the numbered γ folds a stretch between two
				// polls at a time.
				if got, want := polledRendering(t, num, db), polledRendering(t, hash, db); got != want {
					t.Errorf("%s (set %v, polled):\nnumbered\n%s\nhashed\n%s", src, set, got, want)
				}
				trNum, trHash := trace.New(), trace.New()
				for _, run := range []struct {
					p  *Plan
					tr *trace.Trace
				}{{num, trNum}, {hash, trHash}} {
					seq, errFn := run.p.StreamOn(db, nil, nil, run.tr)
					for range seq {
					}
					if err := errFn(); err != nil {
						t.Fatal(err)
					}
				}
				numScan := groupNodes(num.root)[0].input
				if a, b := trNum.Lookup(numScan), trHash.Lookup(scans[0]); a == nil || b == nil || a.Rows != b.Rows {
					t.Errorf("%s: traced Scan %+v numbered, %+v hashed", src, a, b)
				}
			}
		}
	}
	for f := exec.Count; f <= exec.CountCol; f++ {
		if !funcs[f] {
			t.Errorf("no query folds %v", f)
		}
	}
	const sumB, avgB = "select X.A, sum(X.B) s from X group by X.A", "select X.A, count(*) n, avg(X.B) a from X group by X.A"
	for _, c := range [][2]string{
		{"Bad", sumB}, {"Bad", avgB}, {"BadV", sumB}, {"BadV", avgB}, {"BadW", sumB}, {"BadW", avgB},
		// The avg meets its string a row before the sum meets its own.
		{"BadC", "select X.A, sum(X.B) s, avg(X.C) a from X group by X.A"},
	} {
		rel, q := c[0], c[1]
		src := strings.ReplaceAll(strings.ReplaceAll(q, "X.", rel+"."), "from X", "from "+rel)
		num, hash := compile(src), compile(src)
		scans := hashed(hash)
		_, errNum := num.ExecuteOn(db, nil, nil)
		_, errHash := hash.ExecuteOn(db, nil, nil)
		if errNum == nil || errHash == nil || errNum.Error() != errHash.Error() {
			t.Errorf("%s: numbered %v, hashed %v; want one error", src, errNum, errHash)
		}
		// Traced and polled, both fail at the same row.
		var rows [2]int64
		for k, p := range []*Plan{num, hash} {
			tr := trace.New()
			seq, errFn := p.StreamOn(db, nil, func() error { return nil }, tr)
			for range seq {
			}
			if errFn() == nil {
				t.Fatalf("%s: no error", src)
			}
			scan := groupNodes(p.root)[0].input
			if k == 1 {
				scan = scans[0]
			}
			rows[k] = tr.Lookup(scan).Rows
		}
		if rows[0] != rows[1] {
			t.Errorf("%s: failed after %d rows numbered, %d hashed", src, rows[0], rows[1])
		}
	}
}

// polledRendering is rendered with a cancellation check that never fails.
func polledRendering(t *testing.T, p *Plan, db map[string]*relation.Relation) string {
	t.Helper()
	var b strings.Builder
	seq, errFn := p.StreamOn(db, nil, func() error { return nil }, nil)
	for tup, m := range seq {
		for _, v := range tup {
			fmt.Fprintf(&b, "%v:%v ", v.Kind(), v)
		}
		fmt.Fprintf(&b, "×%d\n", m)
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestNumberedGroupCancelsAtTheSameRow: a check that fails at its second
// poll stops the numbered γ and the hashing γ at the same row, traced or
// not, over a relation never cloned and over one with dead base slots
// under a delta, also when rows polled before γ began leave the count
// between two polls part-way (the execution polls a shared count). The
// rows are counted through the check: the execution's poll count at
// each call, and where it ends.
func TestNumberedGroupCancelsAtTheSameRow(t *testing.T) {
	big := relation.New("Big", "A", "B")
	for i := 0; i < 1000; i++ {
		big.Add(i%7, i)
	}
	db := map[string]*relation.Relation{"Big": big, "W": stretched("W")}
	stop := errors.New("cancelled")
	for _, rel := range []string{"Big", "W"} {
		src := "select " + rel + ".A, count(*) n from " + rel + " group by " + rel + ".A"
		for _, traced := range []bool{false, true} {
			for _, before := range []uint{0, 37, 63} {
				num, err := CompileSchema(sql.MustParse(src), db)
				if err != nil {
					t.Fatal(err)
				}
				hash, _ := CompileSchema(sql.MustParse(src), db)
				scans := hashed(hash)
				var seen [2][]uint
				var ended [2]uint
				var scanned [2]int64
				for k, p := range []*Plan{num, hash} {
					ctx := &runCtx{rels: db, checkCnt: before}
					ctx.check = func() error {
						if seen[k] = append(seen[k], ctx.checkCnt); len(seen[k]) == 2 {
							return stop
						}
						return nil
					}
					if traced {
						ctx.trace = trace.New()
					}
					for range guard(p.root.Run(ctx), ctx) {
					}
					if ctx.err != stop {
						t.Fatalf("%s: %v, want the check's error", src, ctx.err)
					}
					ended[k] = ctx.checkCnt
					if traced {
						scan := groupNodes(p.root)[0].input
						if k == 1 {
							scan = scans[0]
						}
						scanned[k] = ctx.trace.Lookup(scan).Rows
					}
				}
				if !slices.Equal(seen[0], seen[1]) || ended[0] != ended[1] {
					t.Errorf("%s (traced %v, %d polls before): checked at %v, ended at %d numbered; at %v, %d hashed", src, traced, before, seen[0], ended[0], seen[1], ended[1])
				}
				if want := int64(2*pollEvery - before); scanned[0] != scanned[1] || traced && scanned[0] != want {
					t.Errorf("%s (%d polls before): cancelled after %d rows numbered, %d hashed; want %d", src, before, scanned[0], scanned[1], want)
				}
			}
		}
	}
}

// TestNumberedGroupWhileInserting runs the numbered γ on a relation while
// another goroutine inserts into it (run it under -race): every execution
// reads one version — distinct keys, counts that add up to no fewer rows
// than the last execution read — and a Clone taken meanwhile groups as the
// hashing γ groups it.
func TestNumberedGroupWhileInserting(t *testing.T) {
	r := relation.New("R", "A", "B")
	for i := 0; i < 500; i++ {
		r.Add(i%13, i)
	}
	src := "select R.A, count(*) n from R group by R.A"
	num, err := CompileSchema(sql.MustParse(src), map[string]*relation.Relation{"R": r})
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := CompileSchema(sql.MustParse(src), map[string]*relation.Relation{"R": r})
	hashed(hash)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 500; i < 3000; i++ {
			r.Add(i%17, i)
			if i%2 == 0 {
				r.Add(i%17, 0) // a duplicate now and then: a count bump
			}
		}
	}()
	last := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		res, err := num.ExecuteOn(map[string]*relation.Relation{"R": r}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		res.Each(func(tup relation.Tuple, m int) {
			if m != 1 {
				t.Errorf("key %v yielded %d times", tup[0], m)
			}
			total += int(tup[1].AsInt())
		})
		if total < last {
			t.Fatalf("an execution read %d rows after one read %d", total, last)
		}
		last = total
		c := map[string]*relation.Relation{"R": r.Clone()}
		if got, want := rendered(t, num, c, src, nil), rendered(t, hash, c, src, nil); got != want {
			t.Fatalf("a clone groups as\n%s\nnumbered, and as\n%s\nhashed", got, want)
		}
	}
}
