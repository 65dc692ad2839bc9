// Package atest is the analyzers' fixture harness: it type-checks a
// fixture package with go/parser + go/types, runs an analyzer over it
// through arcvetutil.Run — the same call cmd/arcvet makes — and checks
// the diagnostics against // want "regexp" comments.
//
// Fixtures live under <analyzer>/testdata/src/<importpath>/*.go.
// Import paths under the module prefix (repro/...) resolve to sibling
// fixture directories, so stubs of internal/relation etc. can carry
// the real import paths the analyzers match on; all other imports
// resolve from GOROOT source.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/arcvetutil"
)

// Run analyzes the fixture package at testdata/src/<pkgPath> with a and
// reports any mismatch between emitted diagnostics and // want
// expectations as test errors.
func Run(t *testing.T, testdata string, a *arcvetutil.Analyzer, pkgPath string) {
	t.Helper()
	diags, fset, files := analyze(t, testdata, a, pkgPath)
	checkWants(t, fset, files, diags)
}

// Diags analyzes the fixture package at testdata/src/<pkgPath> and
// returns the raw diagnostics with the FileSet that positions them,
// skipping // want matching. Tests use it for behavior that cannot be
// expressed as a want comment — e.g. a diagnostic reported at a
// suppression directive's own position.
func Diags(t *testing.T, testdata string, a *arcvetutil.Analyzer, pkgPath string) ([]arcvetutil.Diagnostic, *token.FileSet) {
	t.Helper()
	diags, fset, _ := analyze(t, testdata, a, pkgPath)
	return diags, fset
}

// analyze loads the fixture package and runs a over it the way
// cmd/arcvet runs the suite over a real one.
func analyze(t *testing.T, testdata string, a *arcvetutil.Analyzer, pkgPath string) ([]arcvetutil.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	pkg, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	return arcvetutil.Run([]*arcvetutil.Analyzer{a}, l.fset, pkg.files, pkg.pkg, pkg.info), l.fset, pkg.files
}

// pkgInfo is one typechecked fixture package.
type pkgInfo struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*pkgInfo
	std  types.Importer
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		pkgs: map[string]*pkgInfo{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the fixture tree + GOROOT.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, path); isDir(dir) {
		pi, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return l.std.Import(path)
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// load parses and typechecks the fixture package at path.
func (l *loader) load(path string) (*pkgInfo, error) {
	if pi, ok := l.pkgs[path]; ok {
		return pi, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := arcvetutil.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pi := &pkgInfo{pkg: pkg, info: info, files: files}
	l.pkgs[path] = pi
	return pi, nil
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// checkWants matches diagnostics against // want "re" comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []arcvetutil.Diagnostic) {
	t.Helper()
	type want struct {
		file    string
		line    int
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					text := strings.ReplaceAll(arg[1], `\"`, `"`)
					re, err := regexp.Compile(text)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, text, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
