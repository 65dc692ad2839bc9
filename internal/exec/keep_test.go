package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/convention"
	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/value"
)

// The tests below hold every consumer that keeps what a Seq yields to the
// Seq contract: a yielded tuple is valid until yield returns, so a keeper
// copies it. Each keeper drains a poisoned producer, which overwrites
// every tuple with garbage once yield returns, and must give what it
// gives over fresh tuples.

// keepRows has duplicates, 2 and 2.0, NULLs, bag multiplicities and
// repeated group keys, so a keeper that aliases the producer's tuple
// misses a duplicate, merges two groups or keeps garbage.
var keepRows = []Row{
	{relation.Tuple{value.Int(1), value.Int(10)}, 1},
	{relation.Tuple{value.Int(2), value.Int(20)}, 2},
	{relation.Tuple{value.Int(1), value.Int(10)}, 1},
	{relation.Tuple{value.Float(2), value.Int(20)}, 1},
	{relation.Tuple{value.Null(), value.Str("x")}, 3},
	{relation.Tuple{value.Int(3), value.Null()}, 1},
	{relation.Tuple{value.Int(1), value.Int(11)}, 2},
	{relation.Tuple{value.Null(), value.Str("x")}, 1},
	{relation.Tuple{value.Int(3), value.Int(30)}, 1},
}

// fresh streams rows, each as a tuple of its own.
func fresh(rows []Row) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		for _, r := range rows {
			if !yield(r.Tup.Clone(), r.Mult) {
				return
			}
		}
	}
}

// poisoned streams rows, each as a tuple of its own that it overwrites
// with a value no row holds as soon as yield returns: the strictest
// producer the Seq contract allows. (A producer that reuses one tuple
// would hide an aliasing keeper: every tuple it kept would read as the
// current row whenever it is compared.)
func poisoned(rows []Row) Seq {
	return func(yield func(relation.Tuple, int) bool) {
		for _, r := range rows {
			t := r.Tup.Clone()
			ok := yield(t, r.Mult)
			for i := range t {
				t[i] = value.Str("poison")
			}
			if !ok {
				return
			}
		}
	}
}

// render prints rows in order, with each value's kind, so 2 and 2.0 and
// the order of rows tell apart.
func render(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r.Tup {
			fmt.Fprintf(&b, "%v:%v ", v.Kind(), v)
		}
		fmt.Fprintf(&b, "×%d\n", r.Mult)
	}
	return b.String()
}

// relRows lists a relation's tuples in iteration order.
func relRows(r *relation.Relation) []Row {
	var out []Row
	r.Each(func(t relation.Tuple, m int) { out = append(out, Row{t, m}) })
	return out
}

func TestKeepersCopyWhatTheyKeep(t *testing.T) {
	aggs := []Agg{{Func: Count}, {Func: CountDistinct, Col: 1}, {Func: Sum, Col: 1}, {Func: Min, Col: 1}, {Func: Max, Col: 1}}
	type keeper struct {
		name  string
		drain func(Seq) []Row
	}
	keepers := []keeper{
		{"Collect", Collect},
		{"Dedup", func(in Seq) []Row { return Collect(Dedup(in)) }},
		{"Materialize", func(in Seq) []Row { return relRows(Materialize(in, "M", "a", "b")) }},
		{"BuildHashTable", func(in Seq) []Row { return BuildHashTable(in, []int{0}, 2).Rows() }},
		{"GroupAggregate", func(in Seq) []Row {
			return Collect(GroupAggregate(in, []int{0}, aggs, convention.SQL()))
		}},
		{"GroupAggregate/no keys", func(in Seq) []Row {
			return Collect(GroupAggregate(in, nil, aggs, convention.SQL()))
		}},
		{"fixpoint.Run", func(in Seq) []Row {
			total := relation.New("T", "a", "b")
			err := fixpoint.Run(map[string]*relation.Relation{"T": total}, []fixpoint.Rule{{
				Target: "T",
				Eval: func(_ int, _ *relation.Relation, emit fixpoint.Emit) error {
					for t := range in {
						if err := emit(t); err != nil {
							return err
						}
					}
					return nil
				},
			}}, fixpoint.Options{Name: "keep"})
			if err != nil {
				t.Fatal(err)
			}
			return relRows(total)
		}},
	}
	keepers = append(keepers, keeper{"CTE.Run", func(in Seq) []Row {
		loop := &fixpoint.CTE{
			Name:  "C",
			Attrs: []string{"a", "b"},
			Base: func(emit fixpoint.EmitMult) error {
				for t, m := range in {
					if err := emit(t, m); err != nil {
						return err
					}
				}
				return nil
			},
			Step: func(*relation.Relation, fixpoint.EmitMult) error { return nil },
		}
		out, err := loop.Run()
		if err != nil {
			t.Fatal(err)
		}
		return relRows(out)
	}})
	for _, k := range keepers {
		want := render(k.drain(fresh(keepRows)))
		if got := render(k.drain(poisoned(keepRows))); got != want {
			t.Errorf("%s over a poisoned producer:\n%s\nwant, over fresh tuples:\n%s", k.name, got, want)
		}
	}
}
