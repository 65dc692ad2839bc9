package eval

import (
	"fmt"
	"strings"

	"repro/internal/alt"
	"repro/internal/exec"
	"repro/internal/fixpoint"
	"repro/internal/relation"
)

// This file lowers recursive ARC collections onto the shared semi-naive
// engine in internal/fixpoint. A recursive group is one collection that
// references its own head, or several definitions on a dependency cycle
// (a query and the catalog views it is mutually recursive with — how
// Datalog's mutually recursive predicates arrive here). The top-level
// disjuncts of every member's body become the rules of one fixpoint over
// the group's relations:
//
//   - disjuncts that never reference a group relation are seed rules,
//     derived once in round 0;
//   - a disjunct that references the group exactly once, as a plain
//     binding of its own inner-join scope, is linear: each round it
//     re-derives only through the previous round's delta. Its scope is
//     lowered at Prepare, with the occurrence as its first leaf, read
//     through a fixpoint.Handle an execution binds to the delta: each
//     round streams the delta and probes the other leaves' indexes from
//     it;
//   - everything else (non-linear recursion, references through nested
//     scopes, outer-join scopes) falls back to naive re-derivation from
//     the full totals each round, which is sound because accumulation is
//     set-monotone.

// recDef is one member of a recursive group: a collection and the link
// it was validated under.
type recDef struct {
	col  *alt.Collection
	link *alt.Link
}

// recGroup is the recursive group a collection is computed in
// (recursiveGroup), with its rules classified (recursiveRules) or err,
// their refusal. A group Prepare found holds a size hint per member's
// total (hints[i] is defs[i]'s); any other holds none.
type recGroup struct {
	defs  []recDef
	rules []arcRule
	err   error
	hints []exec.SizeHint
}

// hint is the size hint of member i's total, nil when g holds none.
func (g *recGroup) hint(i int) *exec.SizeHint {
	if g.hints == nil {
		return nil
	}
	return &g.hints[i]
}

// groupOf returns the recursive group of col, nil when col is not
// recursive: the prepared one, or one found and classified now and kept
// in ev.groups. A nested collection source (nested) is a group of its
// own. Classifying lowers the rules' scopes, which resolve the group's
// names through the override slot, bound meanwhile to empty relations of
// the members' heads: an execution binds them to the running totals.
func (ev *evaluator) groupOf(col *alt.Collection, link *alt.Link, nested bool) *recGroup {
	if g, ok := ev.prep.group(col); ok {
		return g
	}
	if g, ok := ev.groups[col]; ok {
		return g
	}
	defs := []recDef{{col, link}}
	if !nested {
		defs = ev.recursiveGroup(col, link)
	}
	var g *recGroup
	if defs != nil {
		g = &recGroup{defs: defs}
		restore := ev.saveOverrides(defs)
		for _, d := range defs {
			ev.setOverride(d.col.Head.Rel, relation.New(d.col.Head.Rel, d.col.Head.Attrs...))
		}
		g.rules, g.err = ev.recursiveRules(defs)
		restore()
	}
	if ev.groups == nil {
		ev.groups = map[*alt.Collection]*recGroup{}
	}
	ev.groups[col] = g
	return g
}

// arcRule is one classified disjunct of a group member's body.
type arcRule struct {
	recDef // the member the rule derives into
	f      alt.Formula
	kind   fixpoint.RuleKind
	occ    string // Delta rules: the group relation read through its delta
}

// kindString names a rule kind for EXPLAIN output.
func kindString(k fixpoint.RuleKind) string {
	switch k {
	case fixpoint.Seed:
		return "seed"
	case fixpoint.Delta:
		return "delta (semi-naive)"
	case fixpoint.Naive:
		return "naive per round"
	}
	return "?"
}

// eachBoundRel visits the relation name of every binding in f, at any
// quantifier depth and inside nested collection sources. guarded marks a
// position under negation or inside a grouping scope, where reading a
// relation that is still growing is not monotone. A nested collection's
// references to its own head are its own recursion and are not reported.
func eachBoundRel(f alt.Formula, guarded bool, visit func(rel string, guarded bool)) {
	switch x := f.(type) {
	case *alt.And:
		for _, k := range x.Kids {
			eachBoundRel(k, guarded, visit)
		}
	case *alt.Or:
		for _, k := range x.Kids {
			eachBoundRel(k, guarded, visit)
		}
	case *alt.Not:
		eachBoundRel(x.Kid, true, visit)
	case *alt.Quantifier:
		g := guarded || x.Grouping != nil
		for _, b := range x.Bindings {
			if b.Sub == nil {
				visit(b.Rel, g)
				continue
			}
			own := b.Sub.Head.Rel
			eachBoundRel(b.Sub.Body, g, func(rel string, g bool) {
				if rel != own {
					visit(rel, g)
				}
			})
		}
		eachBoundRel(x.Body, g, visit)
	}
}

// viewDef resolves a bound relation name to the view that computes it.
// Names are resolved the way enumerateLeaf does: inputs and base
// relations shadow views.
func (ev *evaluator) viewDef(rel string) (recDef, bool) {
	ev.note(rel)
	if _, ok := ev.overrides[rel]; ok || ev.base[rel] != nil {
		return recDef{}, false
	}
	v, ok := ev.cat.views[rel]
	return recDef{v, ev.cat.viewLinks[rel]}, ok
}

// recursiveGroup returns the definitions that have to be computed
// together with col: col itself when it references its own head, plus
// every catalog view on a dependency cycle through col — col's strongly
// connected component in the graph of definitions. col comes first. The
// result is nil when col is not recursive at all.
func (ev *evaluator) recursiveGroup(col *alt.Collection, link *alt.Link) []recDef {
	root := col.Head.Rel
	// Forward: every definition col reaches.
	reach := map[string]recDef{root: {col, link}}
	order := []string{root}
	for i := 0; i < len(order); i++ {
		eachBoundRel(reach[order[i]].col.Body, false, func(rel string, _ bool) {
			if _, seen := reach[rel]; seen {
				return
			}
			if v, ok := ev.viewDef(rel); ok {
				reach[rel] = v
				order = append(order, rel)
			}
		})
	}
	// Backward: of those, the ones that lead back to col.
	cyclic := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, name := range order {
			if cyclic[name] {
				continue
			}
			eachBoundRel(reach[name].col.Body, false, func(rel string, _ bool) {
				if !cyclic[name] && (rel == root || cyclic[rel]) {
					cyclic[name] = true
					changed = true
				}
			})
		}
	}
	if !cyclic[root] {
		return nil
	}
	var group []recDef
	for _, name := range order {
		if cyclic[name] {
			group = append(group, reach[name])
		}
	}
	return group
}

// groupNames lists a group's head names for messages.
func groupNames(group []recDef) string {
	names := make([]string, len(group))
	for i, d := range group {
		names[i] = d.col.Head.Rel
	}
	return strings.Join(names, ", ")
}

// saveOverrides returns the function that puts the override slots of
// the group's names back the way they are now (slots never hold nil).
func (ev *evaluator) saveOverrides(group []recDef) func() {
	saved := make(map[string]*relation.Relation, len(group))
	for _, d := range group {
		saved[d.col.Head.Rel] = ev.overrides[d.col.Head.Rel]
	}
	return func() {
		for name, rel := range saved {
			if rel == nil {
				delete(ev.overrides, name)
			} else {
				ev.overrides[name] = rel
			}
		}
	}
}

// recursiveRules splits every member's body into its top-level disjuncts
// and classifies each as a rule, member by member. It refuses a group
// whose recursion is not monotone: between views nothing else checks
// that (within one collection the validator already has).
func (ev *evaluator) recursiveRules(group []recDef) ([]arcRule, error) {
	names := make(map[string]bool, len(group))
	for _, d := range group {
		names[d.col.Head.Rel] = true
	}
	var rules []arcRule
	for _, d := range group {
		unsound := false
		eachBoundRel(d.col.Body, false, func(rel string, guarded bool) {
			unsound = unsound || (guarded && names[rel])
		})
		if unsound {
			return nil, fmt.Errorf("recursion among %s passes through negation or grouping (not stratifiable)", groupNames(group))
		}
		disjuncts := []alt.Formula{d.col.Body}
		if or, ok := d.col.Body.(*alt.Or); ok {
			disjuncts = or.Kids
		}
		ev.pushLink(d.link) // scope analysis resolves names through it
		for _, f := range disjuncts {
			kind, occ := ev.classifyDisjunct(f, names)
			rules = append(rules, arcRule{recDef: d, f: f, kind: kind, occ: occ})
		}
		ev.popLink()
	}
	return rules, nil
}

// classifyDisjunct decides the round discipline for one disjunct, and
// analyzes and lowers its scope. Delta rotation is only sound when the
// single recursive occurrence is a plain binding of the disjunct's own
// scope, joined monotonically: no outer joins (null-extension of the
// delta differs from null-extension of the total), and no further
// references through nested scopes or filters. For a Delta rule it also
// returns the group relation read.
func (ev *evaluator) classifyDisjunct(f alt.Formula, names map[string]bool) (fixpoint.RuleKind, string) {
	total, occ := 0, ""
	eachBoundRel(f, false, func(rel string, _ bool) {
		if names[rel] {
			total++
			occ = rel
		}
	})
	var si *scopeInfo
	if q, ok := f.(*alt.Quantifier); ok {
		// The delta drives the round: the lowered scope streams the
		// occurrence first and probes every other leaf's index from it,
		// so a round costs what its delta holds and builds no index on it.
		var lead *alt.Binding
		for _, b := range q.Bindings {
			if total == 1 && b.Sub == nil && b.Rel == occ {
				lead = b
			}
		}
		// An analysis error is left to the execution, which meets it again.
		si, _ = ev.scopeFor(q, lead)
	}
	switch {
	case total == 0:
		return fixpoint.Seed, ""
	case si == nil || si.lead == nil:
		return fixpoint.Naive, ""
	}
	return fixpoint.Delta, occ
}

// evalRecursive computes a recursive group by semi-naive least fixed
// point through internal/fixpoint and returns each member's relation by
// head name. Before every rule the group's names are bound in the
// override slot — to the running totals, except that a linear rule's one
// occurrence reads the round's delta — so the same lowered scopes serve
// every variant.
func (ev *evaluator) evalRecursive(g *recGroup, e *env) (map[string]*relation.Relation, error) {
	if g.err != nil {
		return nil, g.err
	}
	defer ev.saveOverrides(g.defs)()
	totals := make(map[string]*relation.Relation, len(g.defs))
	for i, d := range g.defs {
		total := relation.New(d.col.Head.Rel, d.col.Head.Attrs...)
		total.Reserve(g.hint(i).Size())
		totals[d.col.Head.Rel] = total
		ev.setOverride(d.col.Head.Rel, total)
	}
	frules := make([]fixpoint.Rule, len(g.rules))
	for i, r := range g.rules {
		// A Delta rule reads the group only through its occurrence, so
		// its scope runs on one execution for the whole fixpoint. Any
		// other rule may read a total as a static side, which grows
		// between rounds: it starts a new execution every round.
		var occs []string
		var runs map[*arcScope]*scopeRun
		if r.kind == fixpoint.Delta {
			occs = []string{r.occ}
			runs = map[*arcScope]*scopeRun{}
		}
		frules[i] = fixpoint.Rule{
			Target: r.col.Head.Rel,
			Kind:   r.kind,
			Occs:   occs,
			Eval: func(occ int, delta *relation.Relation, emit fixpoint.Emit) error {
				for name, total := range totals {
					ev.overrides[name] = total
				}
				if occ >= 0 {
					ev.overrides[r.occ] = delta
				}
				ev.pushLink(r.link)
				defer ev.popLink()
				// One rule's head tuples for this variant; the fixpoint
				// runs set rounds, so it drops their weights.
				err := ev.headTuples(r.col, r.f, e, runs, emit)
				if err != nil {
					return fmt.Errorf("%s: %w", r.col.Head.Rel, err)
				}
				return nil
			},
		}
	}
	name := groupNames(g.defs)
	err := fixpoint.Run(totals, frules, fixpoint.Options{
		Name:    "recursive collection " + name,
		Check:   ev.check,
		OnRound: ev.roundObserver(name),
	})
	if err != nil {
		return nil, err
	}
	for i, d := range g.defs {
		g.hint(i).Record(totals[d.col.Head.Rel].Distinct())
	}
	return totals, nil
}

// explainRecursive renders the fixpoint plan of a recursive group: one
// rule per disjunct with its round discipline and, for lowered scopes,
// the per-round delta plan.
func (ev *evaluator) explainRecursive(g *recGroup, b *strings.Builder) error {
	if g.err != nil {
		return g.err
	}
	deltas := make([]string, len(g.defs))
	for i, d := range g.defs {
		deltas[i] = "Δ" + d.col.Head.Rel
	}
	fmt.Fprintf(b, "Fixpoint %s (semi-naive, %s per round):\n", groupNames(g.defs), strings.Join(deltas, ", "))
	for i, r := range g.rules {
		into := ""
		if len(g.defs) > 1 {
			into = " into " + r.col.Head.Rel
		}
		fmt.Fprintf(b, "  rule %d%s [%s]:\n", i+1, into, kindString(r.kind))
		q, ok := r.f.(*alt.Quantifier)
		if !ok {
			fmt.Fprintf(b, "    (production %s)\n", r.f)
			continue
		}
		ev.pushLink(r.link)
		_, err := ev.explainScope(q, b, 2)
		ev.popLink()
		if err != nil {
			return err
		}
	}
	return nil
}
