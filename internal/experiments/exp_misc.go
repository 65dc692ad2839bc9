package experiments

import (
	"fmt"
	"strings"

	"repro/internal/alt"
	"repro/internal/arc2sql"
	"repro/internal/convention"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/higraph"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/relpat"
	"repro/internal/trc"
	"repro/internal/value"
	"repro/internal/workload"
)

func init() {
	register("E17", e17)
	register("E18", e18)
	register("E19", e19)
	register("E20", e20)
	register("E21", e21)
}

// e17 — Section 2.6 / (15): conventions. The same relational pattern
// yields Q(1,0) under Soufflé conventions and (1,NULL) under SQL
// conventions; the Soufflé rule (run as its ARC translation), the ARC
// query and the SQL engine each meet the relation written out for their
// convention.
func e17() Report {
	const claim = "on R={(1,2)}, S=∅: Soufflé derives Q(1,0); SQL returns (1,NULL); the relational pattern is unchanged"
	rep := Report{Figure: "§2.6 / (15)", Title: "Conventions, not languages", PaperClaim: claim}
	r, s := workload.ConventionInstance()
	// The Soufflé rule.
	prog := datalog.MustParse(datalogQ15)
	dl, err := datalog.EvalPredicate(prog, datalog.EDB{"R": r, "S": s}, "Q")
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	// ARC under both conventions — the same query text.
	souffle, err := evalARC(q15ARC(), convention.Souffle(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	sqlConv, err := evalARC(q15ARC(), convention.SQLDistinct(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	// SQL engine on the lateral formulation (Fig 13b with DISTINCT).
	sqlRes, err := evalSQL(
		"select distinct R.ak, X.sm from R join lateral (select sum(S.b) sm from S where S.a < R.ak) X on true",
		r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	wantZero := relation.New("W", "ak", "sm").Add(1, 0)
	wantNull := relation.New("W", "ak", "sm").Add(1, nil)
	okSouffle := souffle.EqualSet(wantZero) && dl.EqualSet(wantZero)
	okSQL := sqlConv.EqualSet(wantNull) && sqlRes.EqualSet(wantNull)
	rep.Pass = okSouffle && okSQL
	rep.Measured = fmt.Sprintf("Soufflé conventions → Q(1,0)=%v (Datalog rule agrees=%v); SQL conventions → (1,NULL)=%v (SQL engine agrees=%v); same ARC query text in both runs",
		souffle.EqualSet(wantZero), dl.EqualSet(wantZero), sqlConv.EqualSet(wantNull), sqlRes.EqualSet(wantNull))
	return rep
}

// e18 — Section 2.7: set vs bag as a convention. The same pair of
// queries agrees under set semantics and differs in multiplicities under
// bag semantics (nested = semijoin, unnested = per-pair).
func e18() Report {
	const claim = "nested and unnested forms agree under sets; under bags the nested form yields one row per r, the unnested one per (r,s) pair"
	rep := Report{Figure: "§2.7", Title: "Set vs bag is a convention", PaperClaim: claim}
	nested := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("r", "R")},
			alt.Exists([]*alt.Binding{alt.Bind("s", "S")},
				alt.AndF(
					alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A")),
					alt.Eq(alt.Ref("r", "B"), alt.Ref("s", "B")),
				))))
	unnested := alt.Col("Q", []string{"A"},
		alt.Exists([]*alt.Binding{alt.Bind("r", "R"), alt.Bind("s", "S")},
			alt.AndF(
				alt.Eq(alt.Ref("Q", "A"), alt.Ref("r", "A")),
				alt.Eq(alt.Ref("r", "B"), alt.Ref("s", "B")),
			)))
	r := relation.New("R", "A", "B").Add(1, 10).Add(2, 20)
	s := relation.New("S", "B").Add(10).Add(10).Add(20)
	nSet, err := evalARC(nested, convention.SetLogic(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	uSet, err := evalARC(unnested, convention.SetLogic(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	nBag, err := evalARC(nested, convention.SQL(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	uBag, err := evalARC(unnested, convention.SQL(), r, s)
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	one := relation.Tuple{value.Int(1)}
	setEq := nSet.EqualSet(uSet)
	bagDiff := nBag.Mult(one) == 1 && uBag.Mult(one) == 2
	rep.Pass = setEq && bagDiff
	rep.Measured = fmt.Sprintf("set-equal=%v; bag multiplicities of Q(1): nested=%d unnested=%d", setEq, nBag.Mult(one), uBag.Mult(one))
	return rep
}

// e19 — Section 2.1: the two normalization steps from the loose textbook
// TRC form to the strict ARC form preserve semantics at every stage.
func e19() Report {
	const claim = "loose form → scoped form → clean-head form (1), all evaluating equally"
	rep := Report{Figure: "§2.1", Title: "TRC normalization chain", PaperClaim: claim}
	loose := trc.MustParse("{r.A | r ∈ R ∧ ∃s[r.B = s.B ∧ s.C = 0 ∧ s ∈ S]}")
	col, scoped, err := loose.Normalize()
	if err != nil {
		return fail(rep.Figure, rep.Title, claim, err)
	}
	rng := workload.Rand(1919)
	allOK := true
	for trial := 0; trial < 5; trial++ {
		r := workload.RandomBinary(rng, "R", "A", "B", 30, 10, 8)
		s := workload.RandomBinary(rng, "S", "B", "C", 20, 8, 2)
		strict, err := evalARC(col, convention.SetLogic(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		viaARC, err := evalARC(q1(), convention.SetLogic(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		allOK = allOK && strict.EqualSet(viaARC)
	}
	rep.Pass = allOK && strings.Contains(col.String(), "Q.A = r.A")
	rep.Measured = fmt.Sprintf("5 random instances equal=%v; scoped form: %s; strict form: %s",
		allOK, scoped.String(), col.String())
	return rep
}

// e20 — Sections 4/5: the NL2SQL validation path. Structural mutations of
// valid ALTs (unbound variables, dirty heads, missing γ, broken grouping
// keys, unassigned head attributes) are all rejected; the originals
// validate and render to SQL that evaluates equal to direct ARC
// evaluation.
func e20() Report {
	const claim = "the validator catches scoping/grouping/correlation faults in machine-generated ALTs; valid ALTs render to SQL faithfully"
	rep := Report{Figure: "§4–5 (NL2SQL)", Title: "Validator mutation study", PaperClaim: claim}
	corpus := []*alt.Collection{q1(), q3(), q7(), relpat.MultiAggFIO(), countBugV2()}
	caught, total := 0, 0
	for _, col := range corpus {
		if _, err := alt.ValidateCollection(col); err != nil {
			return fail(rep.Figure, rep.Title, claim, fmt.Errorf("corpus query invalid: %w", err))
		}
		for _, m := range mutations(col) {
			total++
			if _, err := alt.ValidateCollection(m); err != nil {
				caught++
			}
		}
	}
	// Faithful rendering: SQL of q1/q3 evaluates equal to ARC.
	rng := workload.Rand(2020)
	r := workload.RandomBinary(rng, "R", "A", "B", 30, 8, 20)
	s := workload.RandomBinary(rng, "S", "B", "C", 20, 20, 2)
	renderOK := true
	for _, col := range []*alt.Collection{q1(), q3()} {
		sqlText, err := arc2sql.RenderString(col)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		got, err := evalSQL(sqlText, r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		want, err := evalARC(col, convention.SQL(), r, s)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		renderOK = renderOK && got.EqualBag(want)
	}
	rep.Pass = caught == total && total >= 20 && renderOK
	rep.Measured = fmt.Sprintf("mutants rejected %d/%d; valid ALTs render to equivalent SQL=%v", caught, total, renderOK)
	return rep
}

// mutations produces invalid variants of a collection (cloned; the
// original is untouched).
func mutations(col *alt.Collection) []*alt.Collection {
	var out []*alt.Collection
	// M1: unbind a variable — rename the first attr ref's variable.
	m1 := alt.CloneCollection(col)
	if p := firstPred(m1); p != nil {
		for _, ref := range alt.TermAttrRefs(p.Right, alt.TermAttrRefs(p.Left, nil)) {
			if ref.Var != m1.Head.Rel {
				ref.Var = "zz_unbound"
				break
			}
		}
		out = append(out, m1)
	}
	// M2: dirty head — add a comparison against the head.
	m2 := alt.CloneCollection(col)
	if q, ok := m2.Body.(*alt.Quantifier); ok && len(m2.Head.Attrs) > 0 {
		q.Body = alt.AndF(q.Body, alt.Lt(alt.Ref(m2.Head.Rel, m2.Head.Attrs[0]), alt.CInt(0)))
		out = append(out, m2)
	}
	// M3: drop γ from a grouping scope with aggregates.
	m3 := alt.CloneCollection(col)
	if dropGrouping(m3.Body) {
		out = append(out, m3)
	}
	// M4: break a grouping key (point it at an unbound variable).
	m4 := alt.CloneCollection(col)
	if breakGroupKey(m4.Body) {
		out = append(out, m4)
	}
	// M5: unassign a head attribute.
	m5 := alt.CloneCollection(col)
	m5.Head.Attrs = append(m5.Head.Attrs, "never_assigned")
	out = append(out, m5)
	// M6: duplicate a binding variable.
	m6 := alt.CloneCollection(col)
	if q, ok := m6.Body.(*alt.Quantifier); ok && len(q.Bindings) >= 2 {
		q.Bindings[1].Var = q.Bindings[0].Var
		out = append(out, m6)
	}
	return out
}

func firstPred(col *alt.Collection) *alt.Pred {
	var found *alt.Pred
	alt.Walk(col.Body, func(f alt.Formula) {
		if found != nil {
			return
		}
		if p, ok := f.(*alt.Pred); ok {
			found = p
		}
	})
	return found
}

func dropGrouping(f alt.Formula) bool {
	done := false
	alt.Walk(f, func(x alt.Formula) {
		if done {
			return
		}
		if q, ok := x.(*alt.Quantifier); ok && q.Grouping != nil {
			q.Grouping = nil
			done = true
		}
	})
	return done
}

func breakGroupKey(f alt.Formula) bool {
	done := false
	alt.Walk(f, func(x alt.Formula) {
		if done {
			return
		}
		if q, ok := x.(*alt.Quantifier); ok && q.Grouping != nil && len(q.Grouping.Keys) > 0 {
			q.Grouping.Keys[0].Var = "zz_nokey"
			done = true
		}
	})
	return done
}

// e21 — Section 2.2: modality metrics. The same queries measured in all
// three modalities (comprehension tokens, ALT nodes, higraph regions and
// edges) — the mechanical proxy for the paper's usability discussion;
// the user study itself is out of scope, as the report's claim says.
func e21() Report {
	const claim = "every corpus query renders in all three modalities; sizes are reported as a usability proxy (user study not reproducible)"
	rep := Report{Figure: "§2.2 modalities", Title: "Modality metrics", PaperClaim: claim}
	// A slice, not a map: the detail rows print in this order every run.
	corpus := []struct {
		name string
		col  *alt.Collection
	}{
		{"(1) SPJ", q1()},
		{"(3) FIO agg", q3()},
		{"(7) FOI agg", q7()},
		{"(8) multi-agg", relpat.MultiAggFIO()},
		{"(10) Hella", relpat.MultiAggHella()},
		{"(22) unique", relpat.UniqueSet()},
		{"(29) count v3", countBugV3()},
	}
	var rows []string
	ok := true
	for _, c := range corpus {
		m := pattern.ComputeModalityMetrics(c.col)
		g, err := higraph.Build(c.col)
		if err != nil {
			return fail(rep.Figure, rep.Title, claim, err)
		}
		svg := g.SVG()
		if m.ComprehensionTokens == 0 || m.ALTNodes == 0 || g.Regions() == 0 || len(svg) == 0 {
			ok = false
		}
		rows = append(rows, fmt.Sprintf("%-14s tokens=%3d altNodes=%3d regions=%2d edges=%2d depth=%d",
			c.name, m.ComprehensionTokens, m.ALTNodes, g.Regions(), len(g.Edges), m.MaxScopeDepth))
	}
	rep.Pass = ok
	rep.Measured = fmt.Sprintf("%d corpus queries measured in 3 modalities", len(corpus))
	rep.Details = strings.Join(rows, "\n")
	return rep
}

var _ = eval.NewCatalog
