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
//     internal/plan once, when the statement is prepared, with its
//     recursive occurrence as the first leaf, read through a Handle the
//     rule binds to the delta each round, so the delta streams and probes the other atoms'
//     indexes; a non-linear one falls back to naive re-derivation per
//     round. Mutually recursive definitions (a query and catalog views)
//     form one multi-target Run. Datalog programs arrive the same way,
//     lowered to ARC by internal/datalog, which uses Stratify to reject
//     recursion through negation or aggregation.
//   - internal/plan executes SQL WITH RECURSIVE through Run as well —
//     the base term a Seed rule, the step a Delta rule with one
//     occurrence, whose naive variant derives nothing because the step
//     reads only the working table (the SQL-standard semantics). UNION
//     runs as set rounds; UNION ALL, which keeps multiplicities, as bag
//     rounds (Options.Bag). Either way the step's compiled exec tree
//     streams the delta through a Handle into the static side: a stored
//     relation's index, or a hash table built once per execution.
//
// The engine owns termination: set accumulation into totals is monotone
// (a tuple enters the total and the next delta only when new), so every
// monotone program over a finite instance converges; MaxIterations bounds
// runaway recursion (e.g. a bag step that keeps producing rows over a
// cyclic instance) with ErrIterationCap.
//
// Under set rounds a round's delta is the tail of its total: a new tuple
// is admitted into the total with one lookup (relation.Admit), and the
// next delta is a window onto the rows the total gained that round
// (relation.Since). A derived tuple is stored once, and a delta builds no
// index unless a rule looks a tuple up in it. Under bag rounds a round's
// output, with its multiplicities, is the next delta, and its rows move
// into the total without a copy.
package fixpoint

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/relation"
)

// MaxIterations bounds every fixpoint's round loop. A finite monotone
// program converges long before it; a diverging one — a bag step that
// keeps producing rows over a cyclic instance grows its result every
// round — gets a clear error before memory runs out. A variable so guard
// tests can tighten it without spinning the full bound.
var MaxIterations = 100000

// ErrIterationCap marks a fixpoint that did not converge within the
// iteration bound. Callers test with errors.Is.
var ErrIterationCap = errors.New("fixpoint iteration cap exceeded")

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

// Emit hands one derived head tuple, with its multiplicity, to the
// engine. Under set rounds the multiplicity is ignored and the tuple is
// admitted into the target's total only when new (relation.Admit);
// under bag rounds it is added to the round's output with its
// multiplicity. Either way a kept tuple is cloned, so callers may reuse
// the backing slice. A tuple of the wrong arity is an error.
type Emit func(t relation.Tuple, mult int) error

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
	// Bag runs bag rounds, SQL's UNION ALL working-table loop: each
	// target's round output, with its multiplicities, goes into a fresh
	// relation, which is the next delta, and once the round is over its
	// rows are added to the total whether or not the total holds them.
	// Rules therefore see a round's output only in the next round. The
	// loop ends when a round derives nothing, so a step that keeps
	// deriving rows ends at MaxIterations.
	Bag bool
	// Check, when non-nil, is polled before every round; a non-nil return
	// aborts the fixpoint with that error. The engine layer wires context
	// cancellation through it so long recursions stop between rounds.
	Check func() error
	// OnRound, when non-nil, observes each completed round: the number of
	// tuples its delta holds across targets, counting multiplicities, and
	// how long it took. Round 0 (the seed pass) is reported too. A
	// callback rather than a trace type keeps this package free of
	// observability dependencies.
	OnRound func(delta int, elapsed time.Duration)
}

// target is one recursive relation's state across the rounds: its total,
// and where the running round's derivations go.
type target struct {
	total *relation.Relation
	// mark is where the running set round started in total, and window
	// the delta a set round hands on: the rows past it, re-cut each round.
	mark   int
	window *relation.Relation
	// out is the running bag round's output.
	out *relation.Relation
}

// Run computes the least fixed point of rules over totals. The totals
// relations are the accumulators: round 0 seeds them through every rule's
// naive variant, and each following round derives only through deltas
// (Delta rules) or re-derives from totals (Naive rules), until a round
// adds nothing. Under set rounds insertion into totals is immediate, so
// rules later in the slice observe tuples emitted earlier in the same
// round — exactly the behaviour of the per-stratum naive pass this engine
// replaces.
func Run(totals map[string]*relation.Relation, rules []Rule, opt Options) error {
	targets := make(map[string]*target, len(totals))
	for name, total := range totals {
		targets[name] = &target{total: total}
	}
	emits := make([]Emit, len(rules))
	for i, r := range rules {
		tg := targets[r.Target]
		if tg == nil {
			return fmt.Errorf("fixpoint %s: rule targets unknown relation %q", opt.Name, r.Target)
		}
		arity := tg.total.Arity()
		emits[i] = func(t relation.Tuple, mult int) error {
			if len(t) != arity {
				return fmt.Errorf("fixpoint %s: %s term arity %d, want %d", opt.Name, r.Target, len(t), arity)
			}
			if opt.Bag {
				tg.out.InsertMult(t, mult)
			} else {
				tg.total.Admit(t)
			}
			return nil
		}
	}
	// A set round marks every total before it runs, and its delta is the
	// window onto each total's rows past the mark. A bag round derives
	// into fresh relations, and its delta is them.
	begin := func() {
		for _, tg := range targets {
			if opt.Bag {
				tg.out = relation.New(tg.total.Name(), tg.total.Attrs()...)
			} else {
				tg.mark = tg.total.Mark()
			}
		}
	}
	// delta is refilled once a round is over, for the targets that gained
	// any tuple: no rule reads the old one any more, so a set round's
	// window is re-cut in place. A bag round's rows are added to the
	// total.
	delta := make(map[string]*relation.Relation, len(totals))
	end := func() {
		clear(delta)
		for name, tg := range targets {
			switch {
			case opt.Bag && tg.out.Distinct() > 0:
				delta[name] = tg.out
				tg.out.Each(func(t relation.Tuple, m int) { tg.total.InsertMult(t, m) })
			case !opt.Bag && tg.total.Mark() > tg.mark:
				if tg.window == nil {
					tg.window = tg.total.Since(tg.mark)
				} else {
					tg.total.Recut(tg.window, tg.mark)
				}
				delta[name] = tg.window
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
	begin()
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
	end()
	if opt.OnRound != nil {
		opt.OnRound(deltaSize(delta), time.Since(roundStart))
	}
	max := MaxIterations
	for iter := 0; ; iter++ {
		if len(delta) == 0 {
			return nil
		}
		if iter >= max {
			return fmt.Errorf("%w: %s did not converge within %d iterations", ErrIterationCap, opt.Name, max)
		}
		if opt.Check != nil {
			if err := opt.Check(); err != nil {
				return err
			}
		}
		if opt.OnRound != nil {
			roundStart = time.Now()
		}
		begin()
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
		end()
		if opt.OnRound != nil {
			opt.OnRound(deltaSize(delta), time.Since(roundStart))
		}
	}
}

// deltaSize sums a round's delta across targets, counting
// multiplicities: a set round's total admits a tuple once, with
// multiplicity 1, so there it equals the number of new tuples.
func deltaSize(m map[string]*relation.Relation) int {
	n := 0
	for _, d := range m {
		n += d.Card()
	}
	return n
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
