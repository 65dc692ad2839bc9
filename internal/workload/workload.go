// Package workload generates the instances the experiment harness and
// benchmarks run on: the paper's concrete micro-instances (the COUNT-bug
// instance, the convention instance, the beers relation, the employee
// schema), plus seeded random generators for equivalence testing at
// scale (random binary relations, parent DAGs and cycles, sparse
// matrices, and NOT-IN instances with controlled NULL rates).
package workload

import (
	"math/rand"

	"repro/internal/relation"
	"repro/internal/value"
)

// Rand returns a deterministic source for a seed; experiments use fixed
// seeds so paper-vs-measured rows are reproducible.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// CountBugInstance is the Section 3.2 instance: R(9,0), S empty.
func CountBugInstance() (*relation.Relation, *relation.Relation) {
	r := relation.New("R", "id", "q").Add(9, 0)
	s := relation.New("S", "id", "d")
	return r, s
}

// ConventionInstance is the Section 2.6 instance: R={(1,2)}, S=∅.
func ConventionInstance() (*relation.Relation, *relation.Relation) {
	r := relation.New("R", "ak", "b").Add(1, 2)
	s := relation.New("S", "a", "b")
	return r, s
}

// Beers is the unique-set instance: d1 and d2 share a beer set; d3 is
// unique.
func Beers() *relation.Relation {
	return relation.New("Likes", "drinker", "beer").
		Add("d1", "b1").Add("d1", "b2").
		Add("d2", "b1").Add("d2", "b2").
		Add("d3", "b1")
}

// Employees returns the Fig 6 schema: R(empl,dept), S(empl,sal).
func Employees() (*relation.Relation, *relation.Relation) {
	r := relation.New("R", "empl", "dept").
		Add("e1", "d1").Add("e2", "d1").Add("e3", "d2").Add("e4", "d3").Add("e5", "d3")
	s := relation.New("S", "empl", "sal").
		Add("e1", 60).Add("e2", 70).Add("e3", 40).Add("e4", 90).Add("e5", 30)
	return r, s
}

// RandomBinary generates a relation with n tuples over integer domains of
// the given sizes; duplicates occur naturally when domains are small.
func RandomBinary(rng *rand.Rand, name string, a1, a2 string, n, dom1, dom2 int) *relation.Relation {
	r := relation.New(name, a1, a2)
	for i := 0; i < n; i++ {
		r.Add(rng.Intn(dom1), rng.Intn(dom2))
	}
	return r
}

// RandomUnary generates a unary relation with n tuples over [0, dom), and
// nullRate (0..1) of additional NULL tuples.
func RandomUnary(rng *rand.Rand, name, attr string, n, dom int, nullRate float64) *relation.Relation {
	r := relation.New(name, attr)
	for i := 0; i < n; i++ {
		if rng.Float64() < nullRate {
			r.Insert(relation.Tuple{value.Null()})
			continue
		}
		r.Add(rng.Intn(dom))
	}
	return r
}

// RandomParent generates an acyclic parent relation over nodes 0..n-1
// with the given number of random forward edges (s < t), for recursion
// experiments.
func RandomParent(rng *rand.Rand, n, edges int) *relation.Relation {
	r := relation.New("P", "s", "t")
	for i := 0; i < edges; i++ {
		s := rng.Intn(n - 1)
		t := s + 1 + rng.Intn(n-s-1)
		r.Add(s, t)
	}
	return r
}

// Chain generates the path graph 0→1→…→n-1 whose transitive closure has
// n(n-1)/2 pairs — the stress instance for recursion benchmarks.
func Chain(n int) *relation.Relation {
	r := relation.New("P", "s", "t")
	for i := 0; i < n-1; i++ {
		r.Add(i, i+1)
	}
	return r
}

// SparseMatrix generates an n×n matrix in (row,col,val) form with the
// given fill fraction.
func SparseMatrix(rng *rand.Rand, name string, n int, fill float64) *relation.Relation {
	r := relation.New(name, "row", "col", "val")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				r.Add(i, j, 1+rng.Intn(9))
			}
		}
	}
	return r
}

// MatMulReference multiplies two sparse matrices directly (the baseline
// for E15), returning (row,col,val) with zero entries omitted.
func MatMulReference(a, b *relation.Relation) *relation.Relation {
	type key struct{ r, c int64 }
	acc := map[key]int64{}
	bByRow := map[int64][][2]int64{} // row → (col, val)
	b.Each(func(t relation.Tuple, _ int) {
		bByRow[t[0].AsInt()] = append(bByRow[t[0].AsInt()], [2]int64{t[1].AsInt(), t[2].AsInt()})
	})
	a.Each(func(t relation.Tuple, _ int) {
		ar, ac, av := t[0].AsInt(), t[1].AsInt(), t[2].AsInt()
		for _, bv := range bByRow[ac] {
			acc[key{ar, bv[0]}] += av * bv[1]
		}
	})
	out := relation.New("C", "row", "col", "val")
	for k, v := range acc {
		out.Add(k.r, k.c, v)
	}
	return out
}

// CountBugRandom generates R(id,q) and S(id,d) where some R ids have no S
// rows and some have exactly q matching rows — the instances on which
// COUNT-bug versions 1/3 return rows that version 2 loses.
func CountBugRandom(rng *rand.Rand, nIDs, maxD int) (*relation.Relation, *relation.Relation) {
	r := relation.New("R", "id", "q")
	s := relation.New("S", "id", "d")
	for id := 0; id < nIDs; id++ {
		d := rng.Intn(maxD + 1) // 0 rows possible
		q := d
		if rng.Float64() < 0.3 {
			q = rng.Intn(maxD + 1) // sometimes wrong on purpose
		}
		r.Add(id, q)
		for j := 0; j < d; j++ {
			s.Add(id, j)
		}
	}
	return r, s
}

// LikesRandom generates a Likes(drinker,beer) instance with nDrinkers
// drinkers choosing subsets of nBeers beers; small domains create shared
// beer sets for the unique-set query.
func LikesRandom(rng *rand.Rand, nDrinkers, nBeers int) *relation.Relation {
	r := relation.New("Likes", "drinker", "beer")
	for d := 0; d < nDrinkers; d++ {
		mask := 1 + rng.Intn(1<<nBeers-1)
		for b := 0; b < nBeers; b++ {
			if mask&(1<<b) != 0 {
				r.Add("d"+itoa(d), "b"+itoa(b))
			}
		}
	}
	return r
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// ThreeLangShapes are arcbench's three_lang statements over the ThreeLang
// instance: the paper's join, grouped sum and transitive closure, each
// spelled in SQL, ARC and Datalog (which defines Q, or A for the closure).
var ThreeLangShapes = []struct{ Name, SQL, ARC, Datalog string }{
	{"join",
		"select distinct R.A from R, S where R.B = S.B and S.C = 0",
		"{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}",
		"Q(a) :- R(a,b), S(b,0)."},
	{"group",
		"select G.A, sum(G.B) as sm from G group by G.A",
		"{Q(A, sm) | ∃r ∈ G, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}",
		"Q(a,sm) :- G(a,_), sm = sum b : {G(a,b)}."},
	{"tc",
		"with recursive A (s, t) as (select P.s, P.t from P union select P.s, A.t from P, A where P.t = A.s) select A.s, A.t from A",
		"{A(s, t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}",
		"A(x,y) :- P(x,y). A(x,y) :- P(x,z), A(z,y)."},
}

// ThreeLang generates the instance shape of arcbench's three_lang
// workload — R(A,B) 800, S(B,C) 450 and G(A,B) 600 distinct random pairs
// (domains 400×200, 200×3, 60×100) and P the 40-node chain — for the
// tests and benchmarks that hold the three languages to one cost.
func ThreeLang(rng *rand.Rand) []*relation.Relation {
	pairs := func(name, a1, a2 string, n, dom1, dom2 int) *relation.Relation {
		r := relation.New(name, a1, a2)
		for r.Distinct() < n {
			if t := (relation.Tuple{value.Int(int64(rng.Intn(dom1))), value.Int(int64(rng.Intn(dom2)))}); !r.Contains(t) {
				r.Insert(t)
			}
		}
		return r
	}
	return []*relation.Relation{
		pairs("R", "A", "B", 800, 400, 200),
		pairs("S", "B", "C", 450, 200, 3),
		pairs("G", "A", "B", 600, 60, 100),
		Chain(40),
	}
}
