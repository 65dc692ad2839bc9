package relation

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestNewAndMeta(t *testing.T) {
	r := New("R", "A", "B")
	if r.Name() != "R" || r.Arity() != 2 {
		t.Fatal("metadata broken")
	}
	if r.AttrIndex("A") != 0 || r.AttrIndex("B") != 1 || r.AttrIndex("C") != -1 {
		t.Fatal("AttrIndex broken")
	}
}

func TestDuplicateAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attribute must panic")
		}
	}()
	New("R", "A", "A")
}

func TestInsertAndMultiplicity(t *testing.T) {
	r := New("R", "A")
	r.Add(1).Add(1).Add(2)
	if r.Distinct() != 2 || r.Card() != 3 {
		t.Fatalf("distinct=%d card=%d", r.Distinct(), r.Card())
	}
	if r.Mult(Tuple{value.Int(1)}) != 2 || r.Mult(Tuple{value.Int(3)}) != 0 {
		t.Fatal("Mult broken")
	}
	if !r.Contains(Tuple{value.Int(2)}) {
		t.Fatal("Contains broken")
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	New("R", "A", "B").Insert(Tuple{value.Int(1)})
}

func TestLift(t *testing.T) {
	if !Lift(nil).IsNull() {
		t.Error("nil → NULL")
	}
	if Lift(3).AsInt() != 3 || Lift(int64(4)).AsInt() != 4 {
		t.Error("int lifting")
	}
	if Lift(2.5).AsFloat() != 2.5 {
		t.Error("float lifting")
	}
	if Lift("x").AsString() != "x" {
		t.Error("string lifting")
	}
	if !Lift(true).AsBool() {
		t.Error("bool lifting")
	}
	if Lift(value.Int(9)).AsInt() != 9 {
		t.Error("value pass-through")
	}
}

func TestDedupAndClone(t *testing.T) {
	r := New("R", "A").Add(1).Add(1).Add(2)
	d := r.Dedup()
	if d.Card() != 2 || d.Distinct() != 2 {
		t.Fatal("Dedup broken")
	}
	c := r.Clone()
	c.Add(5)
	if r.Contains(Tuple{value.Int(5)}) {
		t.Fatal("Clone must be deep")
	}
	if r.Card() != 3 {
		t.Fatal("original modified")
	}
}

func TestUnionAll(t *testing.T) {
	a := New("A", "X").Add(1).Add(2)
	b := New("B", "X").Add(2).Add(3)
	a.UnionAll(b)
	if a.Card() != 4 || a.Mult(Tuple{value.Int(2)}) != 2 {
		t.Fatal("UnionAll broken")
	}
}

func TestProject(t *testing.T) {
	r := New("R", "A", "B").Add(1, 10).Add(1, 20).Add(2, 10)
	p := r.Project("A")
	// Bag projection keeps multiplicities: A=1 occurs twice.
	if p.Card() != 3 || p.Mult(Tuple{value.Int(1)}) != 2 {
		t.Fatalf("bag projection: card=%d mult(1)=%d", p.Card(), p.Mult(Tuple{value.Int(1)}))
	}
	if p.Arity() != 1 || p.Attrs()[0] != "A" {
		t.Fatal("projection schema broken")
	}
}

func TestRename(t *testing.T) {
	r := New("R", "A").Add(1)
	s := r.Rename("S", []string{"Z"})
	if s.Name() != "S" || s.AttrIndex("Z") != 0 {
		t.Fatal("Rename broken")
	}
	k := r.Rename("K", nil)
	if k.AttrIndex("A") != 0 {
		t.Fatal("Rename with nil attrs keeps names")
	}
}

func TestEqualSetBag(t *testing.T) {
	a := New("A", "X").Add(1).Add(1).Add(2)
	b := New("B", "Y").Add(2).Add(1)
	if !a.EqualSet(b) {
		t.Fatal("set-equal ignoring multiplicity and names")
	}
	if a.EqualBag(b) {
		t.Fatal("bag-unequal: multiplicities differ")
	}
	b.Add(1)
	if !a.EqualBag(b) {
		t.Fatal("bag-equal after matching multiplicities")
	}
	c := New("C", "X", "Y").Add(1, 2)
	if a.EqualSet(c) {
		t.Fatal("arity mismatch can never be equal")
	}
}

func TestNullsInTuples(t *testing.T) {
	r := New("R", "A", "B").Add(1, nil).Add(1, nil)
	if r.Distinct() != 1 || r.Card() != 2 {
		t.Fatal("NULL-containing tuples group for storage purposes")
	}
}

func TestStringRendering(t *testing.T) {
	r := New("R", "A", "B").Add(2, "b").Add(1, "a")
	s := r.String()
	if !strings.Contains(s, "R:") || !strings.Contains(s, "A") {
		t.Fatalf("render missing header: %s", s)
	}
	// Canonical order: 1 before 2.
	if strings.Index(s, "1") > strings.Index(s, "2") {
		t.Fatalf("rows not canonically sorted:\n%s", s)
	}
	// Multiplicity column appears only with dups.
	if strings.Contains(s, "#") {
		t.Fatalf("no multiplicity column expected:\n%s", s)
	}
	r.Add(1, "a")
	if !strings.Contains(r.String(), "#") {
		t.Fatal("multiplicity column expected once duplicated")
	}
}

func TestTupleKeyAndClone(t *testing.T) {
	a := Tuple{value.Int(1), value.Str("x")}
	b := Tuple{value.Float(1), value.Str("x")}
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("equal tuples share hashes")
	}
	c := a.Clone()
	c[0] = value.Int(9)
	if a[0].AsInt() != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestDedupIdempotentProperty(t *testing.T) {
	// Property: Dedup is idempotent and Dedup preserves the distinct set.
	f := func(xs []int8) bool {
		r := New("R", "A")
		for _, x := range xs {
			r.Add(int(x))
		}
		d := r.Dedup()
		return d.EqualSet(r) && d.Dedup().EqualBag(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionAllCardinalityProperty(t *testing.T) {
	// Property: |A ⊎ B| = |A| + |B| under bags.
	f := func(xs, ys []int8) bool {
		a := New("A", "X")
		for _, x := range xs {
			a.Add(int(x))
		}
		b := New("B", "X")
		for _, y := range ys {
			b.Add(int(y))
		}
		ca, cb := a.Card(), b.Card()
		a.UnionAll(b)
		return a.Card() == ca+cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
