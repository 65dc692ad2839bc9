// Rosetta shows ARC as the paper's "Rosetta Stone": the same two intents
// expressed in four languages — SQL, Datalog, textbook TRC, and ARC
// itself — all meeting in one ALT and one answer, with conventions
// switched independently of the query (Section 2.6).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	// ---- Intent 1: ancestors (recursion) --------------------------------
	parent := core.NewRelation("P", "s", "t").Add(1, 2).Add(2, 3).Add(3, 4)
	cat := core.NewCatalog().AddRelation(parent)

	// Datalog.
	const datalogSrc = `
		A(x,y) :- P(x,y).
		A(x,y) :- P(x,z), A(z,y).
	`
	dlRes, err := core.EvalDatalog(datalogSrc, "A", parent)
	if err != nil {
		log.Fatal(err)
	}

	// The same program translated into ARC (named perspective, one
	// definition, disjunction instead of two rules — Section 2.9).
	fromDL, err := core.FromDatalog(datalogSrc,
		map[string][]string{"P": {"s", "t"}, "A": {"s", "t"}}, "A")
	if err != nil {
		log.Fatal(err)
	}

	// ARC directly (query (16)).
	arcDirect, err := core.ParseARCCollection(
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}")
	if err != nil {
		log.Fatal(err)
	}

	r1, _ := core.Eval(fromDL, cat, core.Souffle())
	r2, _ := core.Eval(arcDirect, cat, core.Souffle())
	fmt.Println("— intent 1: ancestors —")
	fmt.Printf("Datalog statement: %d facts; Datalog→ARC: %d; ARC (16): %d; all equal: %v\n\n",
		dlRes.Card(), r1.Card(), r2.Card(), r1.EqualSet(dlRes) && r2.EqualSet(dlRes))

	// ---- Intent 2: filtered join, four surface syntaxes ------------------
	cat2 := core.NewCatalog().
		AddRelation(core.NewRelation("R", "A", "B").Add(1, 10).Add(2, 20).Add(3, 30)).
		AddRelation(core.NewRelation("S", "B", "C").Add(10, 0).Add(20, 5).Add(30, 0))

	fromSQL, err := core.FromSQL("select R.A from R, S where R.B = S.B and S.C = 0")
	if err != nil {
		log.Fatal(err)
	}
	fromTRC, err := core.ParseTRC("{r.A | r ∈ R ∧ ∃s[r.B = s.B ∧ s.C = 0 ∧ s ∈ S]}")
	if err != nil {
		log.Fatal(err)
	}
	fromARC, err := core.ParseARCCollection(
		"{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("— intent 2: the same relational pattern from three front ends —")
	sigs := map[string]*core.Signature{}
	for name, col := range map[string]*core.Collection{
		"SQL": fromSQL, "TRC": fromTRC, "ARC": fromARC,
	} {
		res, err := core.Eval(col, cat2, core.SetLogic())
		if err != nil {
			log.Fatal(name, ": ", err)
		}
		sig, _ := core.PatternSignature(col)
		sigs[name] = sig
		fmt.Printf("%-4s rows=%d signature=%s\n", name, res.Card(), sig)
	}
	fmt.Printf("similarity SQL↔TRC: %.2f, SQL↔ARC: %.2f\n\n",
		core.PatternSimilarity(sigs["SQL"], sigs["TRC"]),
		core.PatternSimilarity(sigs["SQL"], sigs["ARC"]))

	// ---- Conventions: one query, two environments (Section 2.6) ---------
	rConv := core.NewRelation("R", "ak", "b").Add(1, 2)
	sConv := core.NewRelation("S", "a", "b") // empty
	catConv := core.NewCatalog().AddRelation(rConv).AddRelation(sConv)
	q, err := core.ParseARCCollection(
		"{Q(ak, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅ [s.a < r.ak ∧ X.sm = sum(s.b)]} [Q.ak = r.ak ∧ Q.sm = x.sm]}")
	if err != nil {
		log.Fatal(err)
	}
	souffle, _ := core.Eval(q, catConv, core.Souffle())
	sqlish, _ := core.Eval(q, catConv, core.SQLDistinct())
	fmt.Println("— conventions: same query text, two environments —")
	fmt.Println("Soufflé conventions (sum ∅ = 0):")
	fmt.Print(souffle.String())
	fmt.Println("SQL conventions (sum ∅ = NULL):")
	fmt.Print(sqlish.String())
}
