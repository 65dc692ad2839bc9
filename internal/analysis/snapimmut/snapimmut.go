// Package snapimmut flags mutations of relations reached from committed
// snapshots.
//
// # The invariant
//
// relation.Store publishes immutable, generation-tagged Snapshots:
// readers load the head atomically and stream from its relations with
// no lock, which is only sound because a *Relation that has appeared in
// a committed snapshot is never mutated again (store.go's contract).
// Every write must go through a WriteSet, whose working() clones the
// base relation copy-on-write. Calling Insert (or any other mutating
// method) on a relation reached from Store.Head, Snapshot.Relation/
// Rels, WriteSet.Base/Relation/Rels, or engine DB.Relation/relsIn therefore
// corrupts data under concurrent readers — a data race the type system
// cannot see, because the mutable and immutable views share one type.
//
// The analyzer performs an intra-function taint walk: values produced
// by the snapshot accessors above (directly, through local variables,
// map indexing, or range) are snapshot-derived, and a call to a
// mutating Relation method (Insert, InsertMult, RemoveKeys, Add,
// UnionAll) on a derived value is reported. Deriving a fresh relation
// (Clone, Dedup, Project, Rename) clears the taint.
//
// internal/relation itself is exempt: it implements the store and owns
// the cloning discipline. Elsewhere, a deliberate mutation (e.g. a
// single-writer bootstrap path) can be suppressed with
//
//	//arcvet:ignore snapimmut <why no concurrent reader can exist>
package snapimmut

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/arcvetutil"
)

var Analyzer = &arcvetutil.Analyzer{
	Name: "snapimmut",
	Doc:  "flags mutating Relation method calls on values reached from a committed Snapshot rather than a WriteSet clone",
	Run:  run,
}

// mutating methods of *relation.Relation: calling any of these on a
// published relation is the race.
var mutators = map[string]bool{
	"Insert":     true,
	"InsertMult": true,
	"RemoveKeys": true,
	"Add":        true,
	"UnionAll":   true,
}

// sources are the accessors whose results are snapshot-derived.
var sources = []struct{ pkg, recv, name string }{
	{"internal/relation", "Store", "Head"},
	{"internal/relation", "Snapshot", "Relation"},
	{"internal/relation", "Snapshot", "Rels"},
	{"internal/relation", "WriteSet", "Base"},
	{"internal/relation", "WriteSet", "Relation"},
	{"internal/relation", "WriteSet", "Rels"},
	{"internal/engine", "DB", "Relation"},
	{"internal/engine", "DB", "relsIn"}, // the relation map of one execution
}

// fresheners return a new private relation; applying one launders the
// taint.
var fresheners = map[string]bool{
	"Clone":   true,
	"Dedup":   true,
	"Project": true,
	"Rename":  true,
}

func run(pass *arcvetutil.Pass) {
	if arcvetutil.PkgIs(pass.Pkg, "internal/relation") {
		return // the store's own implementation package
	}
	sup := arcvetutil.NewSuppressor(pass)

	for _, fd := range arcvetutil.FuncBodies(pass) {
		w := &walker{pass: pass, sup: sup, taint: map[types.Object]bool{}}
		w.stmts(fd.Body)
	}
}

// walker tracks, in source order, which local variables hold
// snapshot-derived relations (or maps of them).
type walker struct {
	pass  *arcvetutil.Pass
	sup   *arcvetutil.Suppressor
	taint map[types.Object]bool
}

// stmts walks statements in order, updating taint and checking calls.
// Function literals are walked inline with the enclosing taint state —
// closures capture the variables they mutate.
func (w *walker) stmts(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Check RHS calls first (a tainted receiver may be mutated in
			// the same statement that rebinds the variable).
			for _, rhs := range n.Rhs {
				w.checkExpr(rhs)
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := w.objOf(id); obj != nil {
							w.taint[obj] = w.derived(n.Rhs[i])
						}
					}
				}
			} else if len(n.Rhs) == 1 {
				// r, ok := m[k] style: taint every ident LHS if RHS derived.
				d := w.derived(n.Rhs[0])
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := w.objOf(id); obj != nil {
							w.taint[obj] = d && isRelationish(w.pass.TypesInfo.TypeOf(id))
						}
					}
				}
			}
			return false
		case *ast.ValueSpec:
			// var r = snap.Relation("x")
			for _, rhs := range n.Values {
				w.checkExpr(rhs)
			}
			if len(n.Names) == len(n.Values) {
				for i, id := range n.Names {
					if id.Name != "_" {
						if obj := w.objOf(id); obj != nil {
							w.taint[obj] = w.derived(n.Values[i])
						}
					}
				}
			}
			return false
		case *ast.RangeStmt:
			w.checkExpr(n.X)
			if w.derived(n.X) {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj := w.objOf(id); obj != nil {
						w.taint[obj] = true
					}
				}
			}
			w.stmts(n.Body)
			return false
		case ast.Expr:
			w.checkExpr(n)
			return false
		}
		return true
	})
}

// checkExpr reports mutating calls on derived receivers anywhere inside e.
func (w *walker) checkExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !mutators[sel.Sel.Name] {
			return true
		}
		fn := arcvetutil.Callee(w.pass.TypesInfo, call)
		if fn == nil || !arcvetutil.MethodOn(fn, "internal/relation", "Relation", sel.Sel.Name) {
			return true
		}
		if w.derived(sel.X) {
			w.sup.Report(call.Pos(), "%s mutates a relation reached from a committed snapshot; snapshots are immutable once published — write through a WriteSet (Insert/Delete/Put) instead", sel.Sel.Name)
		}
		return true
	})
}

// derived reports whether e evaluates to a snapshot-derived relation (or
// snapshot/relation-map, which index and range taint-propagate from).
func (w *walker) derived(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.objOf(e)
		return obj != nil && w.taint[obj]
	case *ast.ParenExpr:
		return w.derived(e.X)
	case *ast.IndexExpr:
		return w.derived(e.X)
	case *ast.UnaryExpr:
		return w.derived(e.X)
	case *ast.CallExpr:
		if fn := arcvetutil.Callee(w.pass.TypesInfo, e); fn != nil {
			for _, s := range sources {
				if arcvetutil.MethodOn(fn, s.pkg, s.recv, s.name) {
					return true
				}
			}
			if fresheners[fn.Name()] && arcvetutil.MethodOn(fn, "internal/relation", "Relation", fn.Name()) {
				return false
			}
		}
		// A method chained off a derived receiver that returns a relation
		// view stays derived unless it freshens.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && w.derived(sel.X) {
			return isRelationish(w.pass.TypesInfo.TypeOf(e))
		}
		return false
	case *ast.SelectorExpr:
		// Plain field reads: not tracked across struct fields.
		return false
	}
	return false
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Uses[id]
}

// isRelationish reports whether t is *relation.Relation, a Snapshot, a
// WriteSet, or a map/slice of them — the types taint flows through.
func isRelationish(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Pointer:
		return isRelationish(t.Elem())
	case *types.Map:
		return isRelationish(t.Elem())
	case *types.Slice:
		return isRelationish(t.Elem())
	case *types.Named:
		obj := t.Obj()
		switch obj.Name() {
		case "Relation", "Snapshot", "WriteSet":
			return arcvetutil.PkgIs(obj.Pkg(), "internal/relation")
		}
	}
	return false
}
