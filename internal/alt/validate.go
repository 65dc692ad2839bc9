package alt

import (
	"fmt"
)

// Validator checks the structural rules the paper states for ARC; it is
// the machine-facing validation layer an NL2SQL system would target
// (Section 4: "well-scoped variables, grouping legality, correlation
// shape"). Linking must succeed first; Validate* runs both.

// Mode selects how strictly heads are checked.
type Mode int

const (
	// Strict is for queries and views: heads must be clean and fully
	// assigned in every disjunct.
	Strict Mode = iota
	// Abstract is for abstract relations (Section 2.13.2): head
	// attributes may be used as free parameters in comparison predicates
	// and need not be assigned (the definition may be unsafe on its own).
	Abstract
)

// ValidateCollection links and validates a collection as a strict query.
func ValidateCollection(c *Collection) (*Link, error) {
	return validate(c, Strict)
}

// ValidateAbstract links and validates an abstract-relation definition.
func ValidateAbstract(c *Collection) (*Link, error) {
	return validate(c, Abstract)
}

// ValidateSentence links and validates a Boolean sentence.
func ValidateSentence(s *Sentence) (*Link, error) {
	link, err := LinkSentence(s)
	if err != nil {
		return link, err
	}
	v := &validator{link: link}
	v.formula(s.Body, nil, 0)
	if len(v.errs) > 0 {
		return link, fmt.Errorf("validate: %s", joinErrs(v.errs))
	}
	return link, nil
}

func validate(c *Collection, mode Mode) (*Link, error) {
	link, err := LinkCollection(c)
	if err != nil {
		return link, err
	}
	v := &validator{link: link, mode: mode}
	v.collection(c, true)
	if len(v.errs) > 0 {
		return link, fmt.Errorf("validate: %s", joinErrs(v.errs))
	}
	return link, nil
}

type validator struct {
	link *Link
	mode Mode
	errs []string
}

func (v *validator) errorf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

func (v *validator) collection(c *Collection, top bool) {
	// Head-assignment coverage: every head attribute must be assigned in
	// every top-level disjunct (Section 2.1: heads are kept clean and
	// receive values only via assignment predicates).
	if v.mode == Strict {
		branches := orBranches(c.Body)
		for _, br := range branches {
			assigned := map[string]bool{}
			v.collectAssigned(br, c, assigned)
			for _, a := range c.Head.Attrs {
				if !assigned[a] {
					v.errorf("head attribute %s.%s is never assigned in a disjunct of %s",
						c.Head.Rel, a, c.Head.String())
				}
			}
		}
		// Clean head: head references appear only as the head side of
		// assignment predicates.
		v.checkCleanHead(c)
	}
	if v.link.RecursiveCols[c] {
		v.checkRecursion(c)
	}
	v.formula(c.Body, c, 0)
}

// orBranches splits a body into its top-level disjuncts.
func orBranches(f Formula) []Formula {
	if o, ok := f.(*Or); ok {
		var out []Formula
		for _, k := range o.Kids {
			out = append(out, orBranches(k)...)
		}
		return out
	}
	return []Formula{f}
}

// collectAssigned gathers head attributes of c assigned on the generating
// spine of f (descending through quantifier bodies and conjunctions, not
// through negation or nested collections).
func (v *validator) collectAssigned(f Formula, c *Collection, out map[string]bool) {
	switch x := f.(type) {
	case *And:
		for _, k := range x.Kids {
			v.collectAssigned(k, c, out)
		}
	case *Quantifier:
		v.collectAssigned(x.Body, c, out)
	case *Pred:
		if v.link.Preds[x] == PredAssignment {
			side := x.Left
			if v.link.HeadSide[x] == 1 {
				side = x.Right
			}
			if r, ok := side.(*AttrRef); ok {
				if ref := v.link.Refs[r]; ref.Kind == RefHead && ref.Col == c {
					out[r.Attr] = true
				}
			}
		}
	}
}

func (v *validator) checkCleanHead(c *Collection) {
	var check func(f Formula)
	check = func(f Formula) {
		switch x := f.(type) {
		case *And:
			for _, k := range x.Kids {
				check(k)
			}
		case *Or:
			for _, k := range x.Kids {
				check(k)
			}
		case *Not:
			check(x.Kid)
		case *Quantifier:
			// Do not descend into nested collections: their own heads
			// are validated separately and outer head refs inside them
			// would have linked to this collection only via name capture,
			// which resolve() prevents for bound vars.
			check(x.Body)
		case *IsNull:
			for _, r := range TermAttrRefs(x.Arg, nil) {
				if ref := v.link.Refs[r]; ref.Kind == RefHead && ref.Col == c {
					v.errorf("head reference %s may not appear in an IS NULL predicate", r)
				}
			}
		case *Pred:
			kind := v.link.Preds[x]
			for si, side := range []Term{x.Left, x.Right} {
				for _, r := range TermAttrRefs(side, nil) {
					ref := v.link.Refs[r]
					if ref.Kind != RefHead || ref.Col != c {
						continue
					}
					if kind != PredAssignment {
						v.errorf("head reference %s used in a comparison predicate %q; heads must stay clean", r, x)
						continue
					}
					if v.link.HeadSide[x] != si {
						v.errorf("head reference %s appears on the non-head side of assignment %q", r, x)
						continue
					}
					if _, bare := side.(*AttrRef); !bare {
						v.errorf("head reference %s must be a bare attribute on its side of %q", r, x)
					}
				}
			}
		}
	}
	check(c.Body)
}

func (v *validator) checkRecursion(c *Collection) {
	// Recursive definitions follow Datalog LFP semantics (Section 2.9):
	// the recursive reference must occur where the body is monotone in
	// it — not under negation and not inside a grouping scope (the same
	// collection may still aggregate over other relations).
	var walk func(f Formula, guard string)
	walk = func(f Formula, guard string) {
		switch x := f.(type) {
		case *And:
			for _, k := range x.Kids {
				walk(k, guard)
			}
		case *Or:
			for _, k := range x.Kids {
				walk(k, guard)
			}
		case *Not:
			walk(x.Kid, "under negation")
		case *Quantifier:
			if x.Grouping != nil && guard == "" {
				guard = "inside a grouping scope"
			}
			for _, b := range x.Bindings {
				if v.link.RecursiveBindings[b] == c && guard != "" {
					v.errorf("recursive reference %s ∈ %s occurs %s (unstratified)", b.Var, b.Rel, guard)
				}
				if b.Sub != nil {
					walk(b.Sub.Body, guard)
				}
			}
			walk(x.Body, guard)
		}
	}
	walk(c.Body, "")
}

func (v *validator) formula(f Formula, col *Collection, depth int) {
	switch x := f.(type) {
	case nil:
	case *And:
		for _, k := range x.Kids {
			v.formula(k, col, depth)
		}
	case *Or:
		for _, k := range x.Kids {
			v.formula(k, col, depth)
		}
	case *Not:
		v.formula(x.Kid, col, depth)
	case *Pred:
		v.checkAggPlacement(x, nil)
	case *Quantifier:
		v.quantifier(x, col, depth)
	}
}

func (v *validator) quantifier(q *Quantifier, col *Collection, depth int) {
	if len(q.Bindings) == 0 {
		v.errorf("quantifier with no bindings")
	}
	// Grouping keys must be bound by this very quantifier.
	if q.Grouping != nil {
		for _, k := range q.Grouping.Keys {
			ref, ok := v.link.Refs[k]
			if !ok || ref.Kind != RefBinding {
				v.errorf("grouping key %s does not reference a range variable", k)
				continue
			}
			if v.link.BindingQuantifier[ref.Binding] != q {
				v.errorf("grouping key %s must be bound in the same quantifier as γ", k)
			}
		}
	}
	// Aggregation predicates require a grouping operator on this scope
	// (Section 2.5: "the appearance of any aggregation predicate turns an
	// existential scope into a grouping scope and requires a grouping
	// operator").
	spinePreds := spinePredicates(q.Body)
	hasAgg := false
	for _, p := range spinePreds {
		if predContainsAgg(p) {
			hasAgg = true
		}
	}
	if hasAgg && q.Grouping == nil {
		v.errorf("aggregation predicate in scope %s requires a grouping operator γ", shortQuant(q))
	}
	if q.Grouping != nil {
		v.checkGroupInvariance(q, spinePreds)
	}
	// Aggregates are only legal directly on the spine of a grouping
	// scope; find any that sit deeper (under Or/Not inside this body,
	// before the next quantifier).
	v.checkDeepAggs(q.Body, true)
	// Validate nested collection sources as strict queries sharing this
	// link (their internal rules were linked already; check their heads).
	for _, b := range q.Bindings {
		if b.Sub != nil {
			v.collection(b.Sub, false)
		}
	}
	v.formula(q.Body, col, depth+1)
}

// spinePredicates returns the Pred nodes on the conjunctive spine of a
// quantifier body.
func spinePredicates(f Formula) []*Pred {
	var out []*Pred
	for _, s := range Spine(f) {
		if p, ok := s.(*Pred); ok {
			out = append(out, p)
		}
	}
	return out
}

func predContainsAgg(p *Pred) bool {
	return ContainsAgg(p.Left) || ContainsAgg(p.Right)
}

// checkDeepAggs flags aggregates that are not directly on a quantifier
// spine. onSpine is true while we are still on the conjunctive spine of
// the current quantifier body.
func (v *validator) checkDeepAggs(f Formula, onSpine bool) {
	switch x := f.(type) {
	case *And:
		for _, k := range x.Kids {
			v.checkDeepAggs(k, onSpine)
		}
	case *Or:
		for _, k := range x.Kids {
			v.checkDeepAggs(k, false)
		}
	case *Not:
		v.checkDeepAggs(x.Kid, false)
	case *Pred:
		if !onSpine && predContainsAgg(x) {
			v.errorf("aggregate in %q must appear directly in a grouping scope, not under ∨/¬", x)
		}
		v.checkAggPlacement(x, nil)
	case *Quantifier:
		// A nested quantifier starts its own spine; recursion handles it.
	}
}

// checkAggPlacement rejects nested aggregates.
func (v *validator) checkAggPlacement(p *Pred, _ any) {
	var walk func(t Term, inAgg bool)
	walk = func(t Term, inAgg bool) {
		switch x := t.(type) {
		case *Agg:
			if inAgg {
				v.errorf("nested aggregate in %q", p)
			}
			walk(x.Arg, true)
		case *Arith:
			walk(x.L, inAgg)
			walk(x.R, inAgg)
		}
	}
	walk(p.Left, false)
	walk(p.Right, false)
}

// checkGroupInvariance enforces that, in a grouping scope, the non-
// aggregate parts of assignment and aggregation predicates reference only
// group-invariant values: grouping keys, variables bound outside this
// quantifier, or head attributes.
func (v *validator) checkGroupInvariance(q *Quantifier, spine []*Pred) {
	keys := map[string]bool{}
	for _, k := range q.Grouping.Keys {
		keys[k.Var+"."+k.Attr] = true
	}
	isLocal := func(r *AttrRef) bool {
		ref, ok := v.link.Refs[r]
		if !ok || ref.Kind != RefBinding {
			return false // head refs and unresolved are not local bindings
		}
		return v.link.BindingQuantifier[ref.Binding] == q
	}
	for _, p := range spine {
		isAssign := v.link.Preds[p] == PredAssignment
		if !isAssign && !predContainsAgg(p) {
			continue // plain comparisons are WHERE-stage, any refs allowed
		}
		check := func(t Term) {
			var walk func(Term, bool)
			walk = func(t Term, inAgg bool) {
				switch x := t.(type) {
				case *Agg:
					walk(x.Arg, true)
				case *Arith:
					walk(x.L, inAgg)
					walk(x.R, inAgg)
				case *AttrRef:
					if inAgg {
						return // aggregate arguments range over the group
					}
					if ref := v.link.Refs[x]; ref.Kind == RefHead {
						return
					}
					if keys[x.Var+"."+x.Attr] {
						return
					}
					if isLocal(x) {
						v.errorf("%s in %q is not group-invariant (not a grouping key of γ)", x, p)
					}
				}
			}
			walk(t, false)
		}
		check(p.Left)
		check(p.Right)
	}
}

func shortQuant(q *Quantifier) string {
	if len(q.Bindings) == 0 {
		return "∃[]"
	}
	return "∃" + q.Bindings[0].String() + ",…"
}
