package arcvetutil

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const calleeSrc = `package p

import "strings"

type T struct{ hook func(int) int }

func (T) Val(int) int  { return 0 }
func (*T) Ptr(int) int { return 0 }

type G[E any] struct{}

func (G[E]) Get(int) int { return 0 }

type I interface{ Do(int) int }

type N int

func plain(int) int                 { return 0 }
func gen[A any](A) int              { return 0 }
func gen2[A, B any](A) int          { return 0 }

func calls(t T, p *T, g G[string], i I, fv func(int) int, s []int) {
	plain(1)               // p.plain
	strings.ToUpper("x")   // strings.ToUpper
	t.Val(2)               // (p.T).Val
	p.Ptr(3)               // (*p.T).Ptr
	g.Get(4)               // (p.G[E]).Get
	gen[int](5)            // p.gen
	gen2[int, string](6)   // p.gen2
	gen(7)                 // p.gen
	(plain)(8)             // p.plain
	i.Do(9)                // nil
	fv(10)                 // nil
	t.hook(11)             // nil
	_ = N(12)              // nil
	_ = len(s)             // nil
	func(int) {}(13)       // nil
	[]func(int){nil}[0](14) // nil
}
`

// TestCallee pins Callee to the library function it replaced
// (typeutil.StaticCallee, against which this table was first run): each
// call in calleeSrc names, in its trailing comment, the declared function
// it must resolve to, or nil.
func TestCallee(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", calleeSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	wants := map[int]string{} // line -> trailing comment
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			wants[fset.Position(c.Pos()).Line] = strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		}
	}
	seen := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		line := fset.Position(call.Pos()).Line
		want, ok := wants[line]
		if !ok {
			return true
		}
		seen++
		got := "nil"
		if fn := Callee(info, call); fn != nil {
			got = fn.Origin().FullName()
		}
		if got != want {
			t.Errorf("line %d: Callee = %s, want %s", line, got, want)
		}
		return true
	})
	if seen != len(wants) {
		t.Fatalf("matched %d calls against %d expectations", seen, len(wants))
	}
}
