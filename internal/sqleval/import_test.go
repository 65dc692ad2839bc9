package sqleval

import (
	"go/build"
	"testing"
)

// TestImportsNothingItVerifies keeps the reference independent: the
// planner and the ARC evaluator are checked against this package, so it
// must not hand a query to either.
func TestImportsNothingItVerifies(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "repro/internal/plan" || imp == "repro/internal/eval" {
			t.Errorf("sqleval imports %s, which it is the reference for", imp)
		}
	}
}
