// Package trace collects per-execution operator statistics for EXPLAIN
// ANALYZE and the slow-query log: rows emitted per operator, hash-join
// build sizes and probe hit/miss counts, per-operator wall time, and
// per-round delta sizes for fixpoint (recursive) computations.
//
// A *Trace is per-execution, single-goroutine state — exactly like the
// planner's runCtx that carries it. The disabled path is a nil *Trace:
// every instrumentation site nil-checks before touching per-row state,
// so an untraced execution pays nothing.
package trace

import (
	"fmt"
	"time"
)

// Op holds the counters of one operator for one execution. Fields are
// plain (non-atomic) ints: an execution runs on one goroutine and the
// trace is read only after the result is drained.
type Op struct {
	Rows        int64 // rows the operator emitted
	ProbeHits   int64 // probe-side rows with at least one join match
	ProbeMisses int64 // probe-side rows with no match
	BuildRows   int64 // hash-table build size (join operators)
	Nanos       int64 // wall time inside the operator and its inputs, excluding consumers
}

// Round is one fixpoint round: the number of new (delta) tuples it
// produced and how long deriving them took.
type Round struct {
	Delta int
	Nanos int64
}

// Fixpoint records the per-round history of one recursive computation.
type Fixpoint struct {
	Name   string
	Rounds []Round
}

// Observe appends one round. It is the callback target for
// fixpoint.Options.OnRound.
func (f *Fixpoint) Observe(delta int, elapsed time.Duration) {
	f.Rounds = append(f.Rounds, Round{Delta: delta, Nanos: elapsed.Nanoseconds()})
}

// TotalDelta sums the delta sizes across rounds.
func (f *Fixpoint) TotalDelta() int {
	n := 0
	for _, r := range f.Rounds {
		n += r.Delta
	}
	return n
}

// Trace is one execution's statistics, keyed by operator identity (the
// compiled plan-node pointer, which is stable across executions of one
// prepared statement).
type Trace struct {
	ops map[any]*Op
	fps map[any]*Fixpoint
	// fporder preserves fixpoint creation order, so renderings that list
	// every recursive computation are deterministic.
	fporder []any

	Rows    int64         // rows returned to the caller
	Elapsed time.Duration // wall time of the whole execution
}

// New returns an empty enabled trace.
func New() *Trace {
	return &Trace{ops: map[any]*Op{}, fps: map[any]*Fixpoint{}}
}

// Op returns the counter block for key, creating it on first use.
func (t *Trace) Op(key any) *Op {
	op := t.ops[key]
	if op == nil {
		op = &Op{}
		t.ops[key] = op
	}
	return op
}

// Lookup returns the counter block for key, or nil if the operator
// never ran (e.g. a join input cut short by LIMIT-style early exit).
func (t *Trace) Lookup(key any) *Op {
	if t == nil {
		return nil
	}
	return t.ops[key]
}

// Fixpoint returns the round recorder for key, creating it on first
// use. Re-executions of the same key (a CTE re-materialized per run)
// reuse the recorder, accumulating rounds.
func (t *Trace) Fixpoint(key any, name string) *Fixpoint {
	f := t.fps[key]
	if f == nil {
		f = &Fixpoint{Name: name}
		t.fps[key] = f
		t.fporder = append(t.fporder, key)
	}
	return f
}

// EachFixpoint visits every recursive computation's round recorder in
// creation order.
func (t *Trace) EachFixpoint(f func(*Fixpoint)) {
	if t == nil {
		return
	}
	for _, key := range t.fporder {
		f(t.fps[key])
	}
}

// LookupFixpoint returns the round recorder for key, or nil.
func (t *Trace) LookupFixpoint(key any) *Fixpoint {
	if t == nil {
		return nil
	}
	return t.fps[key]
}

// TotalRounds sums fixpoint rounds across all recursive computations in
// the execution.
func (t *Trace) TotalRounds() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, f := range t.fps {
		n += len(f.Rounds)
	}
	return n
}

// Summary renders the one-line digest the slow-query log records.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	s := fmt.Sprintf("ops=%d rows=%d", len(t.ops), t.Rows)
	if n := t.TotalRounds(); n > 0 {
		s += fmt.Sprintf(" fixpoint_rounds=%d", n)
	}
	return s
}

// FormatDuration renders nanoseconds the way EXPLAIN ANALYZE prints
// operator times: sub-millisecond rounding, stable across platforms.
func FormatDuration(nanos int64) string {
	d := time.Duration(nanos)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
