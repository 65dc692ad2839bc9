// Package arcvetutil is the shared machinery behind the arcvet analyzer
// suite: the Analyzer/Pass/Diagnostic shape the analyzers are written
// against and the one Run that drives them (for cmd/arcvet and for the
// fixture harness alike), the //arcvet:ignore suppression protocol,
// package and method matching against the engine's real types,
// recover-guard detection, and the intra-package call-graph walker the
// reachability analyzers (hookreentry, boundaryguard) are built on.
package arcvetutil

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer checks one invariant over one type-checked package.
type Analyzer struct {
	Name string // also the name //arcvet:ignore directives use
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package: its syntax (parsed with
// comments), its types, and where to report.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding of the analyzer named Analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Run runs the analyzers over one package and returns what they
// reported, ordered by file, line, column, analyzer name and message,
// with exact duplicates collapsed — the same input always prints the
// same lines.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}
	slices.SortFunc(diags, func(x, y Diagnostic) int {
		px, py := fset.Position(x.Pos), fset.Position(y.Pos)
		return cmp.Or(
			cmp.Compare(px.Filename, py.Filename),
			cmp.Compare(px.Line, py.Line),
			cmp.Compare(px.Column, py.Column),
			cmp.Compare(x.Analyzer, y.Analyzer),
			cmp.Compare(x.Message, y.Message),
		)
	})
	return slices.Compact(diags)
}

// NewInfo returns a types.Info with the maps the analyzers read, for the
// type-checker to fill.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// IgnorePrefix is the suppression directive marker. A diagnostic from
// analyzer NAME on line L is suppressed when line L (trailing comment)
// or line L-1 (own-line comment) carries
//
//	//arcvet:ignore NAME[,NAME...] <reason>
//
// The reason is mandatory: a directive without one does not suppress,
// and the named analyzer reports the malformed directive itself so the
// omission is visible instead of silently rotting.
const IgnorePrefix = "arcvet:ignore"

// directive is one parsed //arcvet:ignore comment.
type directive struct {
	line      int
	analyzers []string
	reason    string
	pos       token.Pos
}

// Suppressor filters one analyzer's diagnostics through the file's
// //arcvet:ignore directives. Build one per pass with NewSuppressor and
// route every report through Report.
type Suppressor struct {
	pass *Pass
	// byFile maps filename -> directives in that file.
	byFile map[string][]directive
	// reported tracks malformed directives already reported, by position.
	reported map[token.Pos]bool
}

// NewSuppressor indexes the pass's files for suppression directives.
func NewSuppressor(pass *Pass) *Suppressor {
	s := &Suppressor{pass: pass, byFile: map[string][]directive{}, reported: map[token.Pos]bool{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := s.pass.Fset.Position(c.Pos())
				s.byFile[pos.Filename] = append(s.byFile[pos.Filename], directive{
					line:      pos.Line,
					analyzers: strings.Split(name, ","),
					reason:    strings.TrimSpace(reason),
					pos:       c.Pos(),
				})
			}
		}
	}
	return s
}

// Report emits a diagnostic unless an //arcvet:ignore directive for this
// analyzer covers pos (same line or the line above). A matching
// directive with no reason does not suppress; it is itself reported.
func (s *Suppressor) Report(pos token.Pos, format string, args ...any) {
	p := s.pass.Fset.Position(pos)
	for _, d := range s.byFile[p.Filename] {
		if !slices.Contains(d.analyzers, s.pass.Analyzer.Name) {
			continue
		}
		if d.line != p.Line && d.line != p.Line-1 {
			continue
		}
		if d.reason == "" {
			if !s.reported[d.pos] {
				s.reported[d.pos] = true
				s.pass.Reportf(d.pos, "arcvet:ignore directive needs a reason: //arcvet:ignore %s <why this is safe>", s.pass.Analyzer.Name)
			}
			continue // malformed: does not suppress
		}
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// PkgIs reports whether pkg's import path is, or ends with, one of the
// given suffixes on a path-segment boundary. A "_test" external-test
// suffix on the package path is ignored so x-test packages match their
// subject package.
func PkgIs(pkg *types.Package, suffixes ...string) bool {
	if pkg == nil {
		return false
	}
	path := strings.TrimSuffix(pkg.Path(), "_test")
	path = strings.TrimSuffix(path, ".test")
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Callee resolves the called function or method of a call expression,
// or nil for anything but a static call: conversions, builtins,
// func-typed variables and fields, and interface methods (whose concrete
// method is unknown). An explicit instantiation f[T](x) resolves to the
// generic f.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj() // method or field
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// MethodOn reports whether fn is a method named name on a (possibly
// pointer) named receiver type recv declared in a package matching
// pkgSuffix.
func MethodOn(fn *types.Func, pkgSuffix, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != recv {
		return false
	}
	return PkgIs(named.Obj().Pkg(), pkgSuffix)
}

// FuncBodies lists the pass's function and method declarations that
// have a body, in source order.
func FuncBodies(pass *Pass) []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// FuncDecls indexes FuncBodies by types.Func object. The index is what
// lets the reachability analyzers walk same-package call chains.
func FuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fd := range FuncBodies(pass) {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
		}
	}
	return decls
}

// callsRecover reports whether body contains a direct call to the
// recover builtin.
func callsRecover(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// HasRecoverDefer reports whether fn's body installs a recover guard: a
// defer of a func literal that calls recover, or a defer of a
// same-package function whose body calls recover (the engine's
// `defer recoverTo(&err, op)` idiom).
func HasRecoverDefer(info *types.Info, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fun := ds.Call.Fun.(type) {
		case *ast.FuncLit:
			if callsRecover(info, fun.Body) {
				found = true
			}
		default:
			if fn := Callee(info, ds.Call); fn != nil {
				if d, ok := decls[fn]; ok && callsRecover(info, d.Body) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// Walker performs a depth-first reachability walk over the intra-package
// static call graph, starting from a function body. It descends into
// same-package callees (including function literals in the visited
// bodies) and invokes OnCall for every call expression it passes. The
// walk cannot see across package boundaries — a callee in another
// package is reported to OnCall but never entered.
type Walker struct {
	Info  *types.Info
	Decls map[*types.Func]*ast.FuncDecl
	// StopAt, when non-nil, prunes the walk at functions for which it
	// returns true (boundaryguard stops at recover-guarded functions).
	StopAt func(fn *types.Func, decl *ast.FuncDecl) bool
	// OnCall observes every call expression reached; path is the chain of
	// named functions entered so far (empty while still inside the root).
	OnCall func(call *ast.CallExpr, path []*types.Func)

	visited map[*types.Func]bool
}

// Walk runs the walk from root (a function body or any statement tree).
func (w *Walker) Walk(root ast.Node) {
	if w.visited == nil {
		w.visited = map[*types.Func]bool{}
	}
	w.walk(root, nil)
}

func (w *Walker) walk(root ast.Node, path []*types.Func) {
	if len(path) > 64 {
		return // defensive: deep recursion chains add nothing
	}
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w.OnCall != nil {
			w.OnCall(call, path)
		}
		fn := Callee(w.Info, call)
		if fn == nil || w.visited[fn] {
			return true
		}
		decl, ok := w.Decls[fn]
		if !ok {
			return true // other package, or no body
		}
		w.visited[fn] = true
		if w.StopAt != nil && w.StopAt(fn, decl) {
			return true
		}
		w.walk(decl.Body, append(path[:len(path):len(path)], fn))
		return true
	})
}
