package snapimmut_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/snapimmut"
)

func TestSnapimmut(t *testing.T) {
	atest.Run(t, "testdata", snapimmut.Analyzer, "repro/internal/app")
	atest.Run(t, "testdata", snapimmut.Analyzer, "repro/internal/engine")
}

// TestExemptInRelationPkg checks the analyzer is silent inside
// internal/relation itself, which owns the cloning discipline.
func TestExemptInRelationPkg(t *testing.T) {
	diags, fset := atest.Diags(t, "testdata", snapimmut.Analyzer, "repro/internal/relation")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic inside internal/relation at %s: %s", fset.Position(d.Pos), d.Message)
	}
}
