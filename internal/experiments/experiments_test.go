package experiments

import "testing"

// TestAllExperimentsPass is the reproduction gate: every figure-level
// claim of the paper must be confirmed by its experiment.
func TestAllExperimentsPass(t *testing.T) {
	reports := RunAll()
	if len(reports) != 21 {
		t.Fatalf("expected 21 experiments, have %d", len(reports))
	}
	for _, r := range reports {
		if !r.Pass {
			t.Errorf("%s (%s) FAILED: claim=%q measured=%q", r.ID, r.Figure, r.PaperClaim, r.Measured)
		}
	}
}

// TestReportsRepeat pins that a report is a function of the code alone:
// two runs print the same measured line and the same detail rows (E21's
// rows once came out in map order, so `arcrepro -v` differed run to run).
func TestReportsRepeat(t *testing.T) {
	first, second := RunAll(), RunAll()
	for i, a := range first {
		b := second[i]
		if a.Measured != b.Measured || a.Details != b.Details {
			t.Errorf("%s differs between two runs:\n%s\n%s\nvs\n%s\n%s", a.ID, a.Measured, a.Details, b.Measured, b.Details)
		}
	}
}

func TestRunByID(t *testing.T) {
	r, err := Run("E16")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E16" || !r.Pass {
		t.Fatalf("E16: %+v", r)
	}
	if _, err := Run("E99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 || ids[0] != "E01" || ids[len(ids)-1] != "E21" {
		t.Fatalf("ids = %v", ids)
	}
}
