// Package fixpoint is the shared semi-naive fixpoint engine: the one
// implementation of "recursion as a delta-driven loop over relational
// operators" that all three front ends lower onto. Recursive relations
// are represented as (total, delta) pairs; each round re-derives rule
// consequences only through the tuples added in the previous round,
// rotating the deltas until nothing new appears (or the iteration cap
// trips).
//
//   - internal/eval runs recursive ARC collections through Run: each
//     disjunct becomes a rule. A linear disjunct's scope is lowered onto
//     internal/plan once per execution, with its recursive occurrence as
//     the first leaf, read through a Handle the rule binds to the delta
//     each round, so the delta streams and probes the other atoms'
//     indexes; a non-linear one falls back to naive re-derivation per
//     round. Mutually recursive definitions (a query and catalog views)
//     form one multi-target Run. Datalog programs arrive the same way,
//     lowered to ARC by internal/datalog, which uses Stratify to reject
//     recursion through negation or aggregation.
//   - internal/plan executes SQL WITH RECURSIVE … UNION through Run as
//     well — the base term a Seed rule, the step a Delta rule with one
//     occurrence, whose naive variant derives nothing because the step
//     reads only the working table (the SQL-standard semantics) — and
//     UNION ALL, which keeps multiplicities, through CTE.Run, the
//     working-table loop. Either way the step's compiled exec tree
//     streams the delta through a Handle into the static side: a stored
//     relation's index, or a hash table built once per execution.
//
// The engine owns termination: accumulation into totals is set-monotone
// (a tuple enters the total and the next delta only when new), so every
// monotone program over a finite instance converges; MaxIterations bounds
// runaway recursion (e.g. a UNION ALL step that keeps producing rows over
// a cyclic instance) with ErrIterationCap.
//
// A round's delta is the tail of its total: a new tuple is admitted into
// the total with one lookup (relation.Admit), and the next delta is a
// window onto the rows the total gained that round (relation.Since). A
// derived tuple is stored once, and a delta builds no index unless a rule
// looks a tuple up in it.
package fixpoint

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/relation"
)

// DefaultMaxIterations bounds Run's round loop — far beyond any finite
// monotone workload, it only trips on genuinely diverging programs.
const DefaultMaxIterations = 1000000

// DefaultMaxCTEIterations bounds the rounds of WITH RECURSIVE, under
// UNION (a Run) and UNION ALL (CTE.Run) alike. Lower than
// DefaultMaxIterations because a diverging UNION ALL step grows its
// result every round; the cap turns an infinite loop into a clear error
// before memory does. A variable so guard tests can tighten it without
// spinning the full bound.
var DefaultMaxCTEIterations = 100000

// ErrIterationCap marks a fixpoint that did not converge within the
// iteration bound. Callers test with errors.Is.
var ErrIterationCap = errors.New("fixpoint iteration cap exceeded")

// capErr builds a wrapped ErrIterationCap naming the fixpoint.
func capErr(name string, max int) error {
	return fmt.Errorf("%w: %s did not converge within %d iterations", ErrIterationCap, name, max)
}

// RuleKind selects how Run drives a rule through the rounds.
type RuleKind int

const (
	// Seed rules have no recursive body occurrences: they run once, in
	// round 0 only.
	Seed RuleKind = iota
	// Delta rules are the semi-naive workhorse: round 0 runs them naively
	// (occ = -1), and every later round runs one variant per recursive
	// body occurrence with that occurrence bound to the previous round's
	// delta and the remaining occurrences reading full totals.
	Delta
	// Naive rules re-derive from full totals every round — the sound
	// fallback for bodies where per-occurrence delta rotation does not
	// apply (e.g. ARC disjuncts that reach the recursive relation through
	// nested scopes, negation, or grouping).
	Naive
)

// Emit hands one derived head tuple to the engine, which admits it into
// the target's total only when new (relation.Admit); the next delta is
// the window onto what the total gained (relation.Since), so a new tuple
// is cloned and stored once and callers may reuse the backing slice. A
// tuple of the wrong arity is an error.
type Emit func(t relation.Tuple) error

// Rule is one derivation rule of a recursive component.
type Rule struct {
	// Target names the recursive relation the rule derives into; it must
	// be a key of the totals map passed to Run.
	Target string
	// Kind selects the rule's round discipline.
	Kind RuleKind
	// Occs names the recursive relation read by each delta-rotated body
	// occurrence, in body order (Delta rules only). An occurrence whose
	// relation produced no delta last round is skipped.
	Occs []string
	// Eval derives the rule's head tuples for one variant: occ == -1 is
	// the naive variant (every occurrence reads totals), occ >= 0 binds
	// body occurrence occ to delta. Eval must route every derived tuple
	// through emit.
	Eval func(occ int, delta *relation.Relation, emit Emit) error
}

// Options configures one Run.
type Options struct {
	// Name labels the fixpoint in error messages (a stratum, a collection
	// head, a CTE).
	Name string
	// MaxIterations bounds the round loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// Check, when non-nil, is polled before every round; a non-nil return
	// aborts the fixpoint with that error. The engine layer wires context
	// cancellation through it so long recursions stop between rounds.
	Check func() error
	// OnRound, when non-nil, observes each completed round: the number of
	// new tuples it added across targets and how long it took. Round 0
	// (the seed pass) is reported too. A callback rather than a trace
	// type keeps this package free of observability dependencies.
	OnRound func(delta int, elapsed time.Duration)
}

func (o Options) max(def int) int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return def
}

// Run computes the least fixed point of rules over totals. The totals
// relations are the accumulators: round 0 seeds them through every rule's
// naive variant, and each following round derives only through deltas
// (Delta rules) or re-derives from totals (Naive rules), until a round
// adds nothing. Insertion into totals is immediate, so rules later in the
// slice observe tuples emitted earlier in the same round — exactly the
// behaviour of the per-stratum naive pass this engine replaces.
func Run(totals map[string]*relation.Relation, rules []Rule, opt Options) error {
	emits := make([]Emit, len(rules))
	for i, r := range rules {
		total := totals[r.Target]
		if total == nil {
			return fmt.Errorf("fixpoint %s: rule targets unknown relation %q", opt.Name, r.Target)
		}
		emits[i] = func(t relation.Tuple) error {
			if len(t) != total.Arity() {
				return fmt.Errorf("fixpoint %s: %s term arity %d, want %d", opt.Name, r.Target, len(t), total.Arity())
			}
			total.Admit(t)
			return nil
		}
	}
	// A round marks every total before it runs; its delta is then the
	// window onto each total's rows past the mark, for the totals that
	// gained any.
	marks := make(map[string]int, len(totals))
	mark := func() {
		for name, total := range totals {
			marks[name] = total.Mark()
		}
	}
	// delta is refilled once a round is over: no rule reads the old one
	// any more.
	delta := make(map[string]*relation.Relation, len(totals))
	gained := func() {
		clear(delta)
		for name, total := range totals {
			if total.Mark() > marks[name] {
				delta[name] = total.Since(marks[name])
			}
		}
	}
	// Round 0: every rule runs naively, seeding the deltas. Each rule's
	// evaluation can stream an arbitrary amount of data, so cancellation
	// is polled per rule, not once for the whole round.
	var roundStart time.Time
	if opt.OnRound != nil {
		roundStart = time.Now()
	}
	mark()
	for i, r := range rules {
		if opt.Check != nil {
			if err := opt.Check(); err != nil {
				return err
			}
		}
		if err := r.Eval(-1, nil, emits[i]); err != nil {
			return err
		}
	}
	gained()
	if opt.OnRound != nil {
		opt.OnRound(deltaSize(delta), time.Since(roundStart))
	}
	max := opt.max(DefaultMaxIterations)
	for iter := 0; ; iter++ {
		if len(delta) == 0 {
			return nil
		}
		if iter >= max {
			return capErr(opt.Name, max)
		}
		if opt.Check != nil {
			if err := opt.Check(); err != nil {
				return err
			}
		}
		if opt.OnRound != nil {
			roundStart = time.Now()
		}
		mark()
		for i, r := range rules {
			switch r.Kind {
			case Seed:
				continue
			case Naive:
				if err := r.Eval(-1, nil, emits[i]); err != nil {
					return err
				}
			case Delta:
				for occ, pred := range r.Occs {
					d := delta[pred]
					if d == nil {
						continue
					}
					if err := r.Eval(occ, d, emits[i]); err != nil {
						return err
					}
				}
			}
		}
		gained()
		if opt.OnRound != nil {
			opt.OnRound(deltaSize(delta), time.Since(roundStart))
		}
	}
}

// deltaSize sums a round's new tuples across targets. A total admits a
// tuple once, with multiplicity 1, so cardinality equals the insert count.
func deltaSize(m map[string]*relation.Relation) int {
	n := 0
	for _, d := range m {
		n += d.Card()
	}
	return n
}

// EmitMult is Emit with a bag multiplicity, for the UNION ALL working
// table (which accumulates duplicates).
type EmitMult func(t relation.Tuple, mult int) error

// CTE is the SQL WITH RECURSIVE … UNION ALL working-table loop: result
// and working table start as the base query's output; each round the step
// runs with the recursive reference bound to the working table only (the
// previous round's rows — the SQL-standard semantics), its output becomes
// the next working table, and the loop ends when a round produces
// nothing. Multiplicities accumulate, so termination relies on the step
// eventually producing no rows; the iteration cap catches cyclic
// instances. (Under UNION a row derives as in Run, which runs it: the
// base term is a Seed rule and the step a Delta rule.)
type CTE struct {
	// Name labels the CTE in errors and names the result relation.
	Name string
	// Attrs is the result schema (the declared column list, or the base
	// query's output names).
	Attrs []string
	// Base streams the non-recursive term's output.
	Base func(emit EmitMult) error
	// Step streams one round of the recursive term with the recursive
	// reference bound to delta (the previous working table).
	Step func(delta *relation.Relation, emit EmitMult) error
	// MaxIterations bounds the loop; 0 means DefaultMaxCTEIterations.
	MaxIterations int
	// Check, when non-nil, is polled before every round (context
	// cancellation between working-table iterations).
	Check func() error
	// OnRound, when non-nil, observes each completed round — the base
	// pass first, then one call per step round — with the round's
	// working-table size and derivation time.
	OnRound func(delta int, elapsed time.Duration)
}

// Run executes the loop and returns the accumulated result relation, in
// the order rows were derived. A round's rows move into the result once
// the round is over, without a copy: the working table's stored tuples
// are immutable.
func (c *CTE) Run() (*relation.Relation, error) {
	total := relation.New(c.Name, c.Attrs...)
	round := func(pass func(EmitMult) error) (*relation.Relation, error) {
		next := relation.New(c.Name, c.Attrs...)
		err := pass(func(t relation.Tuple, mult int) error {
			if len(t) != len(c.Attrs) {
				return fmt.Errorf("recursive CTE %s: term arity %d, want %d", c.Name, len(t), len(c.Attrs))
			}
			next.InsertMult(t, mult)
			return nil
		})
		if err != nil {
			return nil, err
		}
		next.Each(func(t relation.Tuple, m int) { total.InsertOwned(t, m) })
		return next, nil
	}
	var roundStart time.Time
	if c.OnRound != nil {
		roundStart = time.Now()
	}
	work, err := round(c.Base)
	if err != nil {
		return nil, err
	}
	if c.OnRound != nil {
		c.OnRound(work.Card(), time.Since(roundStart))
	}
	max := DefaultMaxCTEIterations
	if c.MaxIterations > 0 {
		max = c.MaxIterations
	}
	for iter := 0; work.Distinct() > 0; iter++ {
		if iter >= max {
			return nil, fmt.Errorf("%w: recursive CTE %s did not converge within %d iterations (UNION ALL recursion needs a bounded step)", ErrIterationCap, c.Name, max)
		}
		if c.Check != nil {
			if err := c.Check(); err != nil {
				return nil, err
			}
		}
		if c.OnRound != nil {
			roundStart = time.Now()
		}
		prev := work
		if work, err = round(func(emit EmitMult) error { return c.Step(prev, emit) }); err != nil {
			return nil, err
		}
		if c.OnRound != nil {
			c.OnRound(work.Card(), time.Since(roundStart))
		}
	}
	return total, nil
}

// Handle is a relation slot identity: compiled operator trees that must
// read "the current delta" (or "the finished CTE result") capture a
// Handle pointer at compile time, and each execution maps it to that
// run's relation in per-execution state (the plan layer's runCtx), so
// one compiled tree serves concurrent executions with independent
// rotating relations. It deliberately holds no relation — that would be
// shared mutable state on an otherwise-immutable compiled plan.
type Handle struct {
	// _ keeps Handle non-zero-sized: distinct allocations must have
	// distinct addresses, since pointer identity is the key.
	_ byte
}
