package trace

import (
	"testing"
	"time"
)

func TestOpCreatesOnceAndLookupFindsIt(t *testing.T) {
	tr := New()
	a, b := new(int), new(int)
	if tr.Lookup(a) != nil {
		t.Fatal("Lookup before Op must be nil (the operator never ran)")
	}
	op := tr.Op(a)
	op.Rows = 3
	if tr.Op(a) != op || tr.Lookup(a) != op {
		t.Fatal("Op and Lookup must return the block created on first use")
	}
	if tr.Lookup(b) != nil || tr.Op(b) == op {
		t.Fatal("distinct keys must have distinct blocks")
	}
	if got := tr.Summary(); got != "ops=2 rows=0" {
		t.Fatalf("Summary = %q", got)
	}
}

// The disabled path is a nil *Trace: every reader the renderers and the
// slow-query log call must accept it.
func TestNilTraceIsReadable(t *testing.T) {
	var tr *Trace
	if tr.Lookup(1) != nil || tr.LookupFixpoint(1) != nil {
		t.Fatal("nil trace lookups must be nil")
	}
	tr.EachFixpoint(func(*Fixpoint) { t.Fatal("nil trace has no fixpoints") })
	if tr.TotalRounds() != 0 || tr.Summary() != "" {
		t.Fatalf("nil trace: rounds=%d summary=%q", tr.TotalRounds(), tr.Summary())
	}
}

func TestFixpointsKeepCreationOrderAndAccumulate(t *testing.T) {
	tr := New()
	keys := []string{"c", "a", "b"}
	for _, k := range keys {
		tr.Fixpoint(k, "fp-"+k)
	}
	// A re-execution of the same key reuses the recorder.
	again := tr.Fixpoint("a", "ignored")
	again.Observe(4, 2*time.Microsecond)
	again.Observe(0, time.Microsecond)
	tr.Fixpoint("c", "").Observe(7, time.Nanosecond)

	var got []string
	tr.EachFixpoint(func(f *Fixpoint) { got = append(got, f.Name) })
	if len(got) != 3 || got[0] != "fp-c" || got[1] != "fp-a" || got[2] != "fp-b" {
		t.Fatalf("EachFixpoint order = %v, want creation order [fp-c fp-a fp-b]", got)
	}
	a := tr.LookupFixpoint("a")
	if a != again || len(a.Rounds) != 2 || a.TotalDelta() != 4 || a.Rounds[0].Nanos != 2000 {
		t.Fatalf("fixpoint a = %+v", a)
	}
	if tr.LookupFixpoint("zzz") != nil {
		t.Fatal("unknown fixpoint key must be nil")
	}
	tr.Rows = 11
	if got := tr.Summary(); got != "ops=0 rows=11 fixpoint_rounds=3" {
		t.Fatalf("Summary = %q", got)
	}
}

func TestFormatDurationRounding(t *testing.T) {
	for _, tc := range []struct {
		nanos int64
		want  string
	}{
		{0, "0s"},
		{999, "999ns"},
		{1_500, "1.5µs"},
		{999_999, "999.999µs"},
		{1_234_567, "1.235ms"},    // from 1ms: microsecond resolution
		{999_999_999, "1s"},       // rounded up by the microsecond step
		{1_234_567_890, "1.235s"}, // from 1s: millisecond resolution
	} {
		if got := FormatDuration(tc.nanos); got != tc.want {
			t.Errorf("FormatDuration(%d) = %q, want %q", tc.nanos, got, tc.want)
		}
	}
}
