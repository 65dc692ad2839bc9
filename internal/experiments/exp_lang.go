package experiments

import (
	"fmt"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/relpat"
	"repro/internal/sql2arc"
	"repro/internal/value"
	"repro/internal/workload"
)

func init() {
	register("E09", e09)
	register("E10", e10)
	register("E11", e11)
	register("E12", e12)
	register("E13", e13)
	register("E14", e14)
	register("E15", e15)
	register("E16", e16)
}

// e09 — Fig 10 / (16): ARC recursion with named LFP semantics computes
// the transitive closure, and so does the Datalog two-rule program, which
// runs as its ARC translation under Soufflé conventions. The expected
// closures are written out (chain, cycle) or come from SQL's WITH
// RECURSIVE working-table loop (random), so nothing here is compared
// with itself.
func e09() Report {
	const claim = "recursive definition (16) ≡ Datalog ancestor (LFP), also via Datalog→ARC translation"
	rep := Report{Figure: "Fig 10 / (16)", Title: "Recursion", PaperClaim: claim}
	prog := datalog.MustParse(datalogAncestor)
	schemas := map[string][]string{"P": {"s", "t"}, "A": {"s", "t"}}
	translated, err := datalog.ToARC(prog, schemas, "A")
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	chainTC := relation.New("W", "s", "t")
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 15; j++ {
			chainTC.Add(i, j)
		}
	}
	cycleTC := relation.New("W", "s", "t")
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			cycleTC.Add(i, j)
		}
	}
	random := workload.RandomParent(workload.Rand(909), 20, 30)
	randomTC, err := evalSQL(`with recursive A (s, t) as (select P.s, P.t from P union
		select P.s, A.t from P, A where P.t = A.s) select A.s, A.t from A`, random)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	allOK := true
	detail := ""
	for _, c := range []struct {
		name    string
		p, want *relation.Relation
	}{
		{"chain", workload.Chain(15), chainTC},
		{"random", random, randomTC},
		{"cycle", relation.New("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, 1), cycleTC},
	} {
		dl, err := datalog.EvalPredicate(prog, datalog.EDB{"P": c.p}, "A")
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		arcRes, err := evalARC(q16(), convention.SetLogic(), c.p)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		trRes, err := evalARC(translated, convention.Souffle(), c.p)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		ok := arcRes.EqualSet(c.want) && trRes.EqualSet(c.want) && dl.EqualSet(c.want)
		allOK = allOK && ok
		detail += fmt.Sprintf("%s: |A|=%d agree=%v; ", c.name, c.want.Card(), ok)
	}
	rep.Pass = allOK
	rep.Measured = detail
	return rep
}

// e10 — Fig 11 / (17): SQL NOT IN three-valued behaviour. Any NULL in S
// empties the result; the NOT EXISTS rewrite and the ARC encoding agree.
func e10() Report {
	const claim = "NOT IN (11a) ≡ NOT EXISTS rewrite (11b) ≡ ARC (17); a NULL in S empties the result"
	rep := Report{Figure: "Fig 11 / (17)", Title: "NOT IN under NULLs", PaperClaim: claim}
	rng := workload.Rand(1010)
	allOK := true
	emptied := false
	for trial := 0; trial < 10; trial++ {
		nullRate := 0.0
		if trial%2 == 1 {
			nullRate = 0.2
		}
		r := workload.RandomUnary(rng, "R", "A", 20, 15, 0)
		s := workload.RandomUnary(rng, "S", "A", 10, 15, nullRate)
		a, err := evalSQL(sqlFig11a, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		b, err := evalSQL(sqlFig11b, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		c, err := evalARC(q17(), convention.SQL(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		tr, err := sql2arc.TranslateString(sqlFig11a)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		d, err := evalARC(tr, convention.SQL(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		ok := a.EqualBag(b) && a.EqualBag(c) && a.EqualBag(d)
		allOK = allOK && ok
		hasNull := false
		s.Each(func(t relation.Tuple, _ int) {
			if t[0].IsNull() {
				hasNull = true
			}
		})
		if hasNull {
			emptied = emptied || a.Card() == 0
			allOK = allOK && a.Card() == 0
		}
	}
	rep.Pass = allOK && emptied
	rep.Measured = fmt.Sprintf("10 trials, all four formulations agree=%v, NULL-in-S empties result=%v", allOK, emptied)
	return rep
}

// e11 — Fig 12 / (18): the join annotation left(r, inner(11, s)) matches
// SQL's LEFT OUTER JOIN with the complicated ON condition.
func e11() Report {
	const claim = "join annotation (18) ≡ SQL LEFT OUTER JOIN ON (R.h=11 AND R.y=S.y)"
	rep := Report{Figure: "Fig 12 / (18)", Title: "Outer join annotations", PaperClaim: claim}
	rng := workload.Rand(1111)
	allOK := true
	rows := 0
	for trial := 0; trial < 8; trial++ {
		r := relation.New("R", "m", "y", "h")
		for i := 0; i < 15; i++ {
			h := 11
			if rng.Intn(3) == 0 {
				h = 99
			}
			r.Add(fmt.Sprintf("m%d", i), rng.Intn(6), h)
		}
		s := relation.New("S", "y", "n", "q")
		for i := 0; i < 8; i++ {
			s.Add(rng.Intn(6), fmt.Sprintf("n%d", i), 0)
		}
		arcRes, err := evalARC(q18(), convention.SQL(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		sqlRes, err := evalSQL(sqlFig12, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		allOK = allOK && arcRes.EqualBag(sqlRes)
		rows += arcRes.Card()
	}
	rep.Pass = allOK
	rep.Measured = fmt.Sprintf("8 random instances, bag-equal=%v (%d total rows)", allOK, rows)
	return rep
}

// e12 — Fig 13: scalar ≡ lateral under bags even with duplicate outer
// tuples; the LEFT JOIN + GROUP BY rewrite collapses duplicates (the
// paper's counterexample), found automatically.
func e12() Report {
	const claim = "scalar (13a) ≡ lateral (13b) under bags; LEFT JOIN+GROUP BY (13c) differs when R has duplicates"
	rep := Report{Figure: "Fig 13", Title: "Scalar subqueries as lateral joins", PaperClaim: claim}
	rng := workload.Rand(1212)
	scalarEqLateral := true
	counterexample := false
	for trial := 0; trial < 10; trial++ {
		r := workload.RandomUnary(rng, "R", "A", 8, 4, 0) // small domain → duplicates
		s := workload.RandomBinary(rng, "S", "A", "B", 6, 4, 9)
		a, err := evalSQL(sqlFig13a, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		b, err := evalSQL(sqlFig13b, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		c, err := evalSQL(sqlFig13c, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		scalarEqLateral = scalarEqLateral && a.EqualBag(b)
		if r.Card() != r.Distinct() && !a.EqualBag(c) {
			counterexample = true
		}
	}
	// The ARC representation (13d) is the lateral form.
	tr, err := sql2arc.TranslateString(sqlFig13a)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	foi, _ := pattern.ClassifyAggregation(tr)
	rep.Pass = scalarEqLateral && counterexample && foi == pattern.FOI
	rep.Measured = fmt.Sprintf("scalar≡lateral under bags=%v; LEFT JOIN counterexample found=%v; (13a) translates to FOI lateral=%v",
		scalarEqLateral, counterexample, foi == pattern.FOI)
	return rep
}

// e13 — Fig 15 / (19)–(21): relationalized arithmetic. The direct form,
// the Minus-reified form, and the Minus+Bigger equijoin form agree; the
// externals run through access patterns.
func e13() Report {
	const claim = "direct arithmetic (19) ≡ Minus-reified (20) ≡ Minus⋈Bigger (21)"
	rep := Report{Figure: "Fig 15 / (19)–(21)", Title: "External relations", PaperClaim: claim}
	rng := workload.Rand(1313)
	allOK := true
	rows := 0
	for trial := 0; trial < 6; trial++ {
		r := workload.RandomBinary(rng, "R", "A", "B", 12, 30, 20)
		s := workload.RandomBinary(rng, "S", "Z", "B", 6, 5, 10).Project("B")
		t := workload.RandomBinary(rng, "T", "Z", "B", 6, 5, 10).Project("B")
		a, err := evalARC(q19(), convention.SetLogic(), r, s, t)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		b, err := evalARC(q20(), convention.SetLogic(), r, s, t)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		c, err := evalARC(q21(), convention.SetLogic(), r, s, t)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		sqlRes, err := evalSQL(sqlFig15a, r, s, t)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		ok := a.EqualSet(b) && a.EqualSet(c) && a.EqualSet(sqlRes.Dedup())
		allOK = allOK && ok
		rows += a.Card()
	}
	rep.Pass = allOK
	rep.Measured = fmt.Sprintf("6 random instances, all four formulations equal=%v (%d total rows)", allOK, rows)
	return rep
}

// sqlFig18 materializes the safely defined Subset view (Fig 18; our SQL
// subset has no INTO, so the harness renames the result to "Subset").
const sqlFig18 = `select distinct D1.drinker as left, D2.drinker as right
	from Likes D1, Likes D2
	where not exists
	  (select 1 from Likes L3
	   where not exists
	     (select 1 from Likes L4
	      where L4.beer = L3.beer and D2.drinker = L4.drinker)
	   and D1.drinker = L3.drinker)`

// sqlFig19 is the unique-set query rewritten over the Subset view.
const sqlFig19 = `select distinct L1.drinker from Likes L1
	where not exists
	  (select 1 from Likes L2, Subset S1, Subset S2
	   where L1.drinker <> L2.drinker
	   and S1.left = L1.drinker and S1.right = L2.drinker
	   and S2.left = L2.drinker and S2.right = L1.drinker)`

// e14 — Figs 16–19 / (22)–(24): the unique-set query equals its
// modularization through the abstract Subset relation, the SQL original
// (Fig 17), and the safe-view formulation (Figs 18+19).
func e14() Report {
	const claim = "unique-set (22) ≡ abstract-relation form (24) ≡ SQL Fig 17 ≡ safe-view form Figs 18+19, also on random instances"
	rep := Report{Figure: "Figs 16–19 / (22)–(24)", Title: "Abstract relations", PaperClaim: claim}
	rng := workload.Rand(1414)
	allOK := true
	for trial := 0; trial < 5; trial++ {
		var likes *relation.Relation
		if trial == 0 {
			likes = workload.Beers()
		} else {
			likes = workload.LikesRandom(rng, 5, 3)
		}
		l := likes.Rename("L", []string{"d", "b"})
		cat := eval.NewCatalog().AddRelation(l)
		if err := cat.DefineAbstract(relpat.SubsetAbstract()); err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		direct, err := eval.Eval(relpat.UniqueSet(), cat, convention.SetLogic())
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		modular, err := eval.Eval(relpat.UniqueSetModular(), cat, convention.SetLogic())
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		sqlRes, err := evalSQL(sqlFig17, likes)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		// Figs 18+19: materialize the safe Subset view, then query it.
		subset, err := evalSQL(sqlFig18, likes)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		viaView, err := evalSQL(sqlFig19, likes, subset.Rename("Subset", nil))
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		allOK = allOK && direct.EqualSet(modular) && direct.EqualSet(sqlRes) && direct.EqualSet(viaView)
	}
	rep.Pass = allOK
	rep.Measured = fmt.Sprintf("beers + 4 random instances: (22)≡(24)≡Fig 17≡Figs 18+19 = %v", allOK)
	return rep
}

// e15 — Fig 20 / (25),(26): matrix multiplication in ARC (both with
// arithmetic and with the reified "*" external) matches a direct sparse
// matmul baseline.
func e15() Report {
	const claim = "ARC matrix multiplication (26) ≡ reified-external form (Fig 20) ≡ direct sparse matmul"
	rep := Report{Figure: "Fig 20 / (25),(26)", Title: "Matrix multiplication", PaperClaim: claim}
	rng := workload.Rand(1515)
	allOK := true
	entries := 0
	for _, n := range []int{4, 8} {
		a := workload.SparseMatrix(rng, "A", n, 0.4)
		b := workload.SparseMatrix(rng, "B", n, 0.4)
		want := workload.MatMulReference(a, b)
		direct, err := evalARC(relpat.MatMul(), convention.SetLogic(), a, b)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		reified, err := evalARC(relpat.MatMulExternal(), convention.SetLogic(), a, b)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		allOK = allOK && direct.EqualSet(want) && reified.EqualSet(want)
		entries += want.Card()
	}
	rep.Pass = allOK
	rep.Measured = fmt.Sprintf("4×4 and 8×8 sparse: both ARC forms ≡ baseline = %v (%d entries)", allOK, entries)
	return rep
}

// e16 — Fig 21 / (27)–(29): the COUNT bug. On R(9,0), S=∅ version 1
// returns {9}, version 2 ∅, version 3 {9}; property-tested v1≡v3 and the
// lint flags exactly version 2.
func e16() Report {
	const claim = "on R(9,0),S=∅: v1→{9}, v2→∅, v3→{9}; v1≡v3 on random instances; lint flags only v2"
	rep := Report{Figure: "Fig 21 / (27)–(29)", Title: "The COUNT bug", PaperClaim: claim}
	r, s := workload.CountBugInstance()
	v1, err := evalARC(countBugV1(), convention.SQLDistinct(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	v2, err := evalARC(countBugV2(), convention.SQLDistinct(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	v3, err := evalARC(countBugV3(), convention.SQLDistinct(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	nine := relation.Tuple{value.Int(9)}
	paperOK := v1.Card() == 1 && v1.Contains(nine) && v2.Card() == 0 && v3.EqualSet(v1)
	// SQL engine agrees on all three figures.
	s1, _ := evalSQL(sqlFig21a, r, s)
	s2, _ := evalSQL(sqlFig21b, r, s)
	s3, _ := evalSQL(sqlFig21c, r, s)
	sqlOK := s1.EqualSet(v1) && s2.EqualSet(v2) && s3.EqualSet(v3)
	// Property: v1 ≡ v3 on random instances; v2 loses empty-group ids.
	rng := workload.Rand(1616)
	propOK, v2Lost := true, false
	for trial := 0; trial < 8; trial++ {
		rr, ss := workload.CountBugRandom(rng, 12, 3)
		a, err := evalARC(countBugV1(), convention.SQLDistinct(), rr, ss)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		b, err := evalARC(countBugV2(), convention.SQLDistinct(), rr, ss)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		c, err := evalARC(countBugV3(), convention.SQLDistinct(), rr, ss)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		propOK = propOK && a.EqualSet(c)
		if !b.EqualSet(a) {
			v2Lost = true
		}
	}
	// The lint flags version 2 and only version 2.
	f1, _ := pattern.LintCountBug(countBugV1())
	f2, _ := pattern.LintCountBug(countBugV2())
	f3, _ := pattern.LintCountBug(countBugV3())
	lintOK := len(f1) == 0 && len(f2) == 1 && len(f3) == 0
	rep.Pass = paperOK && sqlOK && propOK && v2Lost && lintOK
	rep.Measured = fmt.Sprintf("paper instance v1={9}:%v v2=∅:%v v3≡v1:%v; SQL agrees=%v; random v1≡v3=%v, v2 lost rows=%v; lint flags only v2=%v",
		v1.Contains(nine), v2.Card() == 0, v3.EqualSet(v1), sqlOK, propOK, v2Lost, lintOK)
	return rep
}

var _ = alt.PrintTree
