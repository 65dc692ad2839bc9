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
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			// The go command's own rule: a first element without a dot is
			// the standard library's (or, here, the module's).
			if first, _, _ := strings.Cut(imp, "/"); strings.Contains(first, ".") {
				t.Errorf("%s imports %s, which is neither standard library nor this module", fset.Position(spec.Pos()), imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
