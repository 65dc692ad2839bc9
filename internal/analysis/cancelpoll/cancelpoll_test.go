package cancelpoll_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/cancelpoll"
)

func TestPlanLoops(t *testing.T) {
	atest.Run(t, "testdata", cancelpoll.Analyzer, "repro/internal/plan")
}

// TestEvalLoops: internal/eval's loops over an exec.Seq are held to the
// same rule, and the shape of its γ loop — the pipeline runs inside the
// Seq's input closure, the groups come out of the range — is seen.
func TestEvalLoops(t *testing.T) {
	atest.Run(t, "testdata", cancelpoll.Analyzer, "repro/internal/eval")
}

func TestFixpointLoops(t *testing.T) {
	atest.Run(t, "testdata", cancelpoll.Analyzer, "repro/internal/fixpoint")
}

// TestOtherPkgSilent checks the analyzer ignores packages outside
// internal/plan, internal/eval and internal/fixpoint (exec operators are lazy Seqs
// driven by the plan layer's polled loop).
func TestOtherPkgSilent(t *testing.T) {
	diags, fset := atest.Diags(t, "testdata", cancelpoll.Analyzer, "repro/internal/exec")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside plan/eval/fixpoint at %s: %s", fset.Position(d.Pos), d.Message)
	}
}
