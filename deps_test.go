package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoThirdPartyCode holds the module to "clone, go build, read
// everything that runs": every Go file the go command would build
// imports only the standard library and repro/..., go.mod requires
// nothing, and no vendor directory exists.
func TestNoThirdPartyCode(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(mod), "require") {
		t.Errorf("go.mod has a require directive:\n%s", mod)
	}
	eachImport(t, func(pos token.Position, file, imp string) {
		// The go command's own rule: a first element without a dot is
		// the standard library's (or, here, the module's).
		if first, _, _ := strings.Cut(imp, "/"); strings.Contains(first, ".") {
			t.Errorf("%s imports %s, which is neither standard library nor this module", pos, imp)
		}
	})
}

// TestUnsafeOnlyInValue keeps package unsafe behind value.Value's
// methods: value.Value's pointer word is a string's bytes or the address
// of its kind (docs/INVARIANTS.md, "Value is compared only through its
// methods"), which holds only while no other code builds strings, slices
// or pointers out of raw addresses. No non-test file outside
// internal/value imports unsafe.
func TestUnsafeOnlyInValue(t *testing.T) {
	eachImport(t, func(pos token.Position, file, imp string) {
		if imp == "unsafe" && filepath.Dir(file) != filepath.Join("internal", "value") && !strings.HasSuffix(file, "_test.go") {
			t.Errorf("%s imports unsafe outside internal/value", pos)
		}
	})
}

// eachImport calls fn with every import of every Go file the go command
// would build, and fails t on a vendor directory.
func eachImport(t *testing.T, fn func(pos token.Position, file, imp string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			switch {
			case name == "vendor":
				t.Errorf("%s: vendor directory", path)
				return fs.SkipDir
			case name == "testdata", path != "." && (name[0] == '.' || name[0] == '_'):
				return fs.SkipDir // what the go command ignores too
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value) // the parser accepted it
			fn(fset.Position(spec.Pos()), path, imp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
