package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.String() != "NULL" {
		t.Fatalf("NULL renders as %q", v.String())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 || Int(7).Kind() != KindInt {
		t.Error("Int round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip failed")
	}
	if Str("x").AsString() != "x" {
		t.Error("Str round trip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip failed")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int should coerce via AsFloat")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-4), "-4"},
		{Float(1.5), "1.5"},
		{Str("ab"), "'ab'"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKeyIntFloatAlignment(t *testing.T) {
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("2 and 2.0 must share a key (they compare equal)")
	}
	if Int(2).Key() == Float(2.5).Key() {
		t.Error("2 and 2.5 must not share a key")
	}
	if Null().Key() == Int(0).Key() {
		t.Error("NULL must not collide with 0")
	}
	if Str("1").Key() == Int(1).Key() {
		t.Error("'1' must not collide with 1")
	}
}

func TestEqual(t *testing.T) {
	if !Null().Equal(Null()) {
		t.Error("Equal treats NULL = NULL for dedup purposes")
	}
	if !Int(1).Equal(Float(1)) {
		t.Error("1 equals 1.0")
	}
	if Int(1).Equal(Int(2)) {
		t.Error("1 != 2")
	}
}

func TestCompare(t *testing.T) {
	if _, ok := Null().Compare(Int(1)); ok {
		t.Error("NULL compares as not-ok")
	}
	if c, ok := Int(1).Compare(Float(1.5)); !ok || c != -1 {
		t.Errorf("1 vs 1.5 = %d,%v", c, ok)
	}
	if c, ok := Str("b").Compare(Str("a")); !ok || c != 1 {
		t.Errorf("'b' vs 'a' = %d,%v", c, ok)
	}
	if c, ok := Str("a").Compare(Str("a")); !ok || c != 0 {
		t.Errorf("'a' vs 'a' = %d,%v", c, ok)
	}
	if _, ok := Str("a").Compare(Int(1)); ok {
		t.Error("mixed string/int must be incomparable")
	}
	if c, ok := Bool(true).Compare(Bool(false)); !ok || c != 1 {
		t.Errorf("true vs false = %d,%v", c, ok)
	}
}

func TestLessTotalOrder(t *testing.T) {
	// NULL sorts before everything; numerics interleave by value.
	if !Null().Less(Int(-100)) {
		t.Error("NULL < -100 in the canonical order")
	}
	if !Int(1).Less(Float(1.5)) || Float(1.5).Less(Int(1)) {
		t.Error("numeric interleaving broken")
	}
	if !Int(2).Less(Str("a")) {
		t.Error("kind ordering: numbers before strings")
	}
	if Int(1).Less(Int(1)) {
		t.Error("irreflexive")
	}
}

func TestArithmetic(t *testing.T) {
	if v, ok := Add(Int(2), Int(3)); !ok || v.AsInt() != 5 {
		t.Errorf("2+3 = %v,%v", v, ok)
	}
	if v, ok := Sub(Int(5), Int(3)); !ok || v.AsInt() != 2 {
		t.Errorf("5-3 = %v,%v", v, ok)
	}
	if v, ok := Mul(Float(2), Int(3)); !ok || v.AsFloat() != 6 {
		t.Errorf("2.0*3 = %v,%v", v, ok)
	}
	if v, ok := Div(Int(7), Int(2)); !ok || v.AsInt() != 3 {
		t.Errorf("7/2 = %v,%v (integer division)", v, ok)
	}
	if v, ok := Div(Float(7), Int(2)); !ok || v.AsFloat() != 3.5 {
		t.Errorf("7.0/2 = %v,%v", v, ok)
	}
	if v, ok := Div(Int(1), Int(0)); !ok || !v.IsNull() {
		t.Errorf("1/0 = %v,%v (NULL by convention)", v, ok)
	}
	if v, ok := Add(Null(), Int(1)); !ok || !v.IsNull() {
		t.Errorf("NULL+1 = %v,%v (NULL propagation)", v, ok)
	}
	if _, ok := Add(Str("x"), Int(1)); ok {
		t.Error("'x'+1 is a type error")
	}
}

// TestArithmeticOverflowIsFloat: an int result outside int64 is the float
// result (SQLite's rule), never a wrapped int; one just inside stays an
// int.
func TestArithmeticOverflowIsFloat(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	ops := map[string]func(a, b Value) (Value, bool){"+": Add, "-": Sub, "*": Mul, "/": Div}
	for _, c := range []struct {
		a  int64
		op string
		b  int64
		// want is the exact result: an int when it fits, else the float
		// wantF.
		fits  bool
		want  int64
		wantF float64
	}{
		{maxI, "+", 1, false, 0, float64(maxI) + 1},
		{maxI, "+", maxI, false, 0, 2 * float64(maxI)},
		{minI, "+", -1, false, 0, float64(minI) - 1},
		{minI, "+", minI, false, 0, 2 * float64(minI)},
		{maxI, "+", minI, true, -1, 0},
		{maxI - 1, "+", 1, true, maxI, 0},
		{minI, "-", 1, false, 0, float64(minI) - 1},
		{maxI, "-", -1, false, 0, float64(maxI) + 1},
		{0, "-", minI, false, 0, -float64(minI)},
		{-1, "-", minI, true, maxI, 0},
		{minI, "-", minI, true, 0, 0},
		{maxI, "*", 2, false, 0, 2 * float64(maxI)},
		{minI, "*", -1, false, 0, -float64(minI)},
		{-1, "*", minI, false, 0, -float64(minI)},
		{minI, "*", 2, false, 0, 2 * float64(minI)},
		{maxI, "*", maxI, false, 0, float64(maxI) * float64(maxI)},
		{maxI, "*", -1, true, -maxI, 0},
		{minI, "*", 1, true, minI, 0},
		{1 << 32, "*", 1 << 30, true, 1 << 62, 0},
		{1 << 32, "*", 1 << 31, false, 0, 1 << 63},
		{minI, "/", -1, false, 0, -float64(minI)},
		{minI, "/", 1, true, minI, 0},
		{maxI, "/", -1, true, -maxI, 0},
	} {
		got, ok := ops[c.op](Int(c.a), Int(c.b))
		switch {
		case !ok:
			t.Errorf("%d %s %d: type error", c.a, c.op, c.b)
		case c.fits && (got.Kind() != KindInt || got.AsInt() != c.want):
			t.Errorf("%d %s %d = %v (%v), want the int %d", c.a, c.op, c.b, got, got.Kind(), c.want)
		case !c.fits && (got.Kind() != KindFloat || got.AsFloat() != c.wantF):
			t.Errorf("%d %s %d = %v (%v), want the float %v", c.a, c.op, c.b, got, got.Kind(), c.wantF)
		}
	}
}

func TestTVTruthTables(t *testing.T) {
	tvs := []TV{False, Unknown, True}
	// Kleene tables.
	andWant := [3][3]TV{
		{False, False, False},
		{False, Unknown, Unknown},
		{False, Unknown, True},
	}
	orWant := [3][3]TV{
		{False, Unknown, True},
		{Unknown, Unknown, True},
		{True, True, True},
	}
	for i, a := range tvs {
		for j, b := range tvs {
			if got := a.And(b); got != andWant[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, andWant[i][j])
			}
			if got := a.Or(b); got != orWant[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, orWant[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Kleene negation broken")
	}
	if !True.Holds() || False.Holds() || Unknown.Holds() {
		t.Error("only True passes a WHERE filter")
	}
}

func TestTVStrings(t *testing.T) {
	if False.String() != "F" || Unknown.String() != "U" || True.String() != "T" {
		t.Error("TV rendering broken")
	}
	if TV(42).String() != "?" {
		t.Error("unknown TV renders '?'")
	}
}

func TestDeMorganProperty(t *testing.T) {
	// Kleene logic satisfies De Morgan: not(a and b) == not a or not b.
	f := func(ai, bi uint8) bool {
		a, b := TV(ai%3), TV(bi%3)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpOpApply(t *testing.T) {
	cases := []struct {
		a, b Value
		op   CmpOp
		want TV
	}{
		{Int(1), Int(1), Eq, True},
		{Int(1), Int(2), Eq, False},
		{Int(1), Int(2), Ne, True},
		{Int(1), Int(2), Lt, True},
		{Int(2), Int(2), Le, True},
		{Int(3), Int(2), Gt, True},
		{Int(2), Int(2), Ge, True},
		{Int(2), Int(3), Ge, False},
		{Null(), Int(1), Eq, Unknown},
		{Int(1), Null(), Lt, Unknown},
		{Str("a"), Int(1), Eq, Unknown}, // incomparable kinds
		{Str("a"), Str("b"), Lt, True},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCmpOpStringsAndFlip(t *testing.T) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	names := []string{"=", "<>", "<", "<=", ">", ">="}
	for i, op := range ops {
		if op.String() != names[i] {
			t.Errorf("op %d renders %q", i, op.String())
		}
	}
	// a op b == b flip(op) a on all comparable pairs.
	vals := []Value{Int(1), Int(2), Float(1.5)}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				if op.Apply(a, b) != op.Flip().Apply(b, a) {
					t.Errorf("flip law broken for %v %v %v", a, op, b)
				}
			}
		}
	}
}

// checkOneEquality fails t unless a and b agree on every form of
// equality — Equal, Compare == 0 (or both NULL) and equal Key bytes —
// Equal values hash alike, as values and as tuples, a tuple's Hash is
// HashAt over its columns in order, and Less and Compare agree on their
// order.
func checkOneEquality(t *testing.T, a, b Value) {
	t.Helper()
	c, ok := a.Compare(b)
	eq := ok && c == 0 || a.IsNull() && b.IsNull()
	if a.Equal(b) != eq || (a.Key() == b.Key()) != eq {
		t.Fatalf("%v (%v) vs %v (%v): Compare %d,%v, Equal %v, same Key %v",
			a, a.Kind(), b, b.Kind(), c, ok, a.Equal(b), a.Key() == b.Key())
	}
	if eq && a.Hash() != b.Hash() {
		t.Fatalf("%v (%v) = %v (%v) but their hashes differ", a, a.Kind(), b, b.Kind())
	}
	ab, ba := Tuple{a, b}, Tuple{b, a}
	if ab.Hash() != ab.HashAt([]int{0, 1}) || ab.Hash() != ba.HashAt([]int{1, 0}) {
		t.Fatalf("Tuple{%v, %v}: Hash %x, HashAt(0,1) %x, reversed HashAt(1,0) %x",
			a, b, ab.Hash(), ab.HashAt([]int{0, 1}), ba.HashAt([]int{1, 0}))
	}
	if ab.Equal(ba) != eq || eq && ab.Hash() != ba.Hash() {
		t.Fatalf("Tuple{%v, %v} vs its reverse: Equal %v, hashes %x %x", a, b, ab.Equal(ba), ab.Hash(), ba.Hash())
	}
	if c2, ok2 := b.Compare(a); ok2 != ok || c2 != -c {
		t.Fatalf("Compare(%v,%v) = %d,%v but Compare(%v,%v) = %d,%v", a, b, c, ok, b, a, c2, ok2)
	}
	if ok && (a.Less(b) != (c < 0) || b.Less(a) != (c > 0)) {
		t.Fatalf("%v vs %v: Compare %d but Less %v/%v", a, b, c, a.Less(b), b.Less(a))
	}
}

// TestEqualityIsOneEquivalence: Equal, Compare == 0 and Key identity are
// one relation at every magnitude that Hash respects, Compare is
// transitive, and neither Equal nor Hash allocates.
func TestEqualityIsOneEquivalence(t *testing.T) {
	vals := eqCorpus()
	n := len(vals)
	cmp := make([]int8, n*n) // Compare(vals[i], vals[j]), or 2 when incomparable
	for i, a := range vals {
		for j, b := range vals {
			checkOneEquality(t, a, b)
			c, ok := a.Compare(b)
			if !ok {
				c = 2
			}
			cmp[i*n+j] = int8(c)
		}
	}
	for i := range vals {
		for j := range vals {
			ij := cmp[i*n+j]
			if ij > 0 {
				continue
			}
			for k := range vals {
				jk, ik := cmp[j*n+k], cmp[i*n+k]
				if jk > 0 {
					continue
				}
				// vals[i] <= vals[j] <= vals[k]: then vals[i] <= vals[k],
				// strictly unless both steps are ties.
				if want := min(ij, jk); ik != want {
					t.Fatalf("%v ≤ %v ≤ %v (%d, %d) but Compare(%v,%v) = %d",
						vals[i], vals[j], vals[k], ij, jk, vals[i], vals[k], ik)
				}
			}
		}
	}
	pairs := [][2]Value{
		{Int(1<<53 + 1), Float(1 << 53)}, {Float(2), Int(2)}, {Str("ab"), Str("ab")},
		{Null(), Null()}, {Bool(true), Int(1)}, {Int(math.MaxInt64), Float(1 << 63)},
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			p[0].Equal(p[1])
		}
	}); got != 0 {
		t.Fatalf("Equal allocates %v times per run", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			p[0].Hash()
			Tuple(p[:]).Hash()
		}
	}); got != 0 {
		t.Fatalf("Hash allocates %v times per run", got)
	}
}
