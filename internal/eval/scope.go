package eval

import (
	"fmt"

	"repro/internal/alt"
	"repro/internal/value"
)

// joinNode is the evaluator's view of a quantifier's (effective) join
// annotation: a tree of inner/left/full nodes over binding leaves, with
// the ON predicates of outer-join nodes attached (Section 2.11).
type joinNode struct {
	kind   alt.JoinKind
	leaf   *alt.Binding // non-nil for leaves
	kids   []*joinNode
	parent *joinNode
	on     []alt.Formula   // predicates attached to left/full nodes
	vars   map[string]bool // binding vars under this subtree
}

func (n *joinNode) isLeaf() bool { return n.leaf != nil }

// scopeInfo is the per-quantifier evaluation plan: the join tree and the
// classification of the body's conjunctive spine into WHERE predicates,
// boolean filters, head producers, and aggregate predicates.
type scopeInfo struct {
	q    *alt.Quantifier
	tree *joinNode
	// where holds plain predicates evaluated after join enumeration.
	where []alt.Formula
	// filters holds boolean subformulas (negation, nested existentials,
	// disjunctions without head assignments) evaluated per environment.
	filters []alt.Formula
	// producers holds head-assignment predicates (including aggregate
	// assignments) and producing subformulas, in spine order.
	producers []alt.Formula
	// aggFilters holds aggregate comparison predicates (the aggregate
	// used as a test, as in the COUNT bug version 1).
	aggFilters []*alt.Pred
	// aggTerms lists every aggregate node of the scope, for the grouping
	// stage to compute.
	aggTerms []*alt.Agg
	// eqPreds holds all plain equality predicates — the access-pattern
	// feed for external and abstract relation leaves.
	eqPreds []*alt.Pred
	// scope is the scope lowered onto internal/plan (lower.go) when it
	// was analyzed; nil (with reason saying why) keeps it on environment
	// enumeration.
	scope  *arcScope
	reason string
	// lead is the recursive occurrence of a Delta rule's scope
	// (classifyDisjunct): the lowering reads it first, through a handle.
	lead *alt.Binding
	// closed and corrKeys describe the decorrelated variant of a γ∅
	// nested collection's scope (lowering.lookup): its correlation
	// equalities are gone from where and eqPreds, their inner sides
	// group it as corrKeys, and nothing else in it may read outside.
	closed   bool
	corrKeys []*alt.AttrRef
	// home is the outer join node a predicate is routed to (onTarget), on
	// whose ON list it is; a WHERE predicate has none.
	home map[*alt.Pred]*joinNode
}

// scopeInfoFor returns the scope of a quantifier under the current link:
// the prepared one, or one analyzed and lowered now (scopeFor).
func (ev *evaluator) scopeInfoFor(q *alt.Quantifier) (*scopeInfo, error) {
	return ev.scopeFor(q, nil)
}

// scopeFor is scopeInfoFor for the scope of a rule whose recursive
// occurrence lead, when not nil, its lowering reads first; a scope with
// outer joins reads no lead (classifyDisjunct). A scope analyzed now is
// lowered at once, outside the reference, and kept in ev.scopes.
func (ev *evaluator) scopeFor(q *alt.Quantifier, lead *alt.Binding) (*scopeInfo, error) {
	if si := ev.prep.scope(q); si != nil {
		return si, nil
	}
	if si, ok := ev.scopes[q]; ok {
		return si, nil
	}
	si, err := ev.analyze(q)
	if err != nil {
		return nil, err
	}
	if lead != nil && !treeHasOuter(si.tree) {
		si.lead = lead
	}
	if !ev.reference {
		si.scope, si.reason = ev.lower(si)
	}
	if ev.scopes == nil {
		ev.scopes = map[*alt.Quantifier]*scopeInfo{}
	}
	ev.scopes[q] = si
	return si, nil
}

// analyze builds the join tree of a quantifier and classifies its body
// under the current link.
func (ev *evaluator) analyze(q *alt.Quantifier) (*scopeInfo, error) {
	link := ev.curLink()
	si := &scopeInfo{q: q, home: map[*alt.Pred]*joinNode{}}

	// Collect this quantifier's bindings (incl. synthetic constant-leaf
	// bindings created by the linker).
	byVar := map[string]*alt.Binding{}
	for _, b := range q.Bindings {
		byVar[b.Var] = b
	}
	for _, b := range link.ConstBindings {
		if link.BindingQuantifier[b] == q {
			byVar[b.Var] = b
		}
	}

	// Build the effective join tree: the annotation if present, with any
	// unannotated bindings appended as extra inner children.
	covered := map[string]bool{}
	var kids []*joinNode
	if q.Join != nil {
		root, err := buildJoin(q.Join, byVar, covered, link)
		if err != nil {
			return nil, err
		}
		if root.kind == alt.JoinInner && !root.isLeaf() {
			kids = append(kids, root.kids...)
		} else {
			kids = append(kids, root)
		}
	}
	for _, b := range q.Bindings {
		if !covered[b.Var] {
			kids = append(kids, &joinNode{kind: alt.JoinInner, leaf: b})
		}
	}
	si.tree = &joinNode{kind: alt.JoinInner, kids: kids}
	finishJoinTree(si.tree, nil)

	// Classify the spine.
	var joinCandidates []alt.Formula
	for _, el := range alt.Spine(q.Body) {
		switch x := el.(type) {
		case *alt.Pred:
			hasAgg := alt.ContainsAgg(x.Left) || alt.ContainsAgg(x.Right)
			isAssign := ev.effPredKind(x) == alt.PredAssignment
			if x.Op == value.Eq && !hasAgg {
				si.eqPreds = append(si.eqPreds, x)
			}
			switch {
			case hasAgg && isAssign:
				si.producers = append(si.producers, x)
				si.aggTerms = collectAggs(x, si.aggTerms)
			case hasAgg:
				si.aggFilters = append(si.aggFilters, x)
				si.aggTerms = collectAggs(x, si.aggTerms)
			case isAssign:
				si.producers = append(si.producers, x)
			default:
				joinCandidates = append(joinCandidates, x)
			}
		case *alt.IsNull:
			joinCandidates = append(joinCandidates, x)
		default:
			if ev.containsAssignment(el) {
				si.producers = append(si.producers, el)
			} else {
				si.filters = append(si.filters, el)
			}
		}
	}

	// Route join candidates: predicates referencing a nullable side of a
	// left/full node become its ON condition; the rest are WHERE-stage.
	hasOuter := treeHasOuter(si.tree)
	for _, p := range joinCandidates {
		if !hasOuter {
			si.where = append(si.where, p)
			continue
		}
		vars := localPredVars(p, link, q)
		target := onTarget(si.tree, vars)
		if target != nil {
			target.on = append(target.on, p)
			if pp, ok := p.(*alt.Pred); ok {
				si.home[pp] = target
			}
		} else {
			si.where = append(si.where, p)
		}
	}
	return si, nil
}

func buildJoin(j alt.JoinExpr, byVar map[string]*alt.Binding, covered map[string]bool, link *alt.Link) (*joinNode, error) {
	switch x := j.(type) {
	case *alt.JoinVar:
		b := byVar[x.Var]
		if b == nil {
			return nil, fmt.Errorf("join annotation variable %q not bound", x.Var)
		}
		covered[x.Var] = true
		return &joinNode{kind: alt.JoinInner, leaf: b}, nil
	case *alt.JoinConst:
		b := link.ConstBindings[x]
		if b == nil {
			return nil, fmt.Errorf("unlinked constant join leaf %s", x)
		}
		covered[b.Var] = true
		return &joinNode{kind: alt.JoinInner, leaf: b}, nil
	case *alt.JoinOp:
		n := &joinNode{kind: x.Kind}
		for _, k := range x.Kids {
			kn, err := buildJoin(k, byVar, covered, link)
			if err != nil {
				return nil, err
			}
			n.kids = append(n.kids, kn)
		}
		return n, nil
	}
	return nil, fmt.Errorf("unknown join expression %T", j)
}

// finishJoinTree computes parent pointers and var sets bottom-up.
func finishJoinTree(n *joinNode, parent *joinNode) {
	n.parent = parent
	n.vars = map[string]bool{}
	if n.isLeaf() {
		n.vars[n.leaf.Var] = true
		return
	}
	for _, k := range n.kids {
		finishJoinTree(k, n)
		for v := range k.vars {
			n.vars[v] = true
		}
	}
}

func treeHasOuter(n *joinNode) bool {
	if n.kind == alt.JoinLeft || n.kind == alt.JoinFull {
		return true
	}
	for _, k := range n.kids {
		if treeHasOuter(k) {
			return true
		}
	}
	return false
}

// localPredVars returns the variables of p bound by quantifier q.
func localPredVars(p alt.Formula, link *alt.Link, q *alt.Quantifier) map[string]bool {
	out := map[string]bool{}
	for _, r := range alt.FormulaAttrRefs(p, nil) {
		ref, ok := link.Refs[r]
		if ok && ref.Kind == alt.RefBinding && link.BindingQuantifier[ref.Binding] == q {
			out[r.Var] = true
		}
	}
	return out
}

// onTarget finds the left/full node whose ON condition p (with the given
// local vars) belongs to: the lowest covering node if it is itself an
// outer join, otherwise the innermost left/full ancestor reached from the
// nullable side. Returns nil when the predicate is WHERE-stage.
func onTarget(root *joinNode, vars map[string]bool) *joinNode {
	if len(vars) == 0 {
		return nil
	}
	cov := lowestCovering(root, vars)
	if cov == nil {
		return nil
	}
	if cov.kind == alt.JoinLeft || cov.kind == alt.JoinFull {
		return cov
	}
	for cur := cov; cur.parent != nil; cur = cur.parent {
		par := cur.parent
		if par.kind == alt.JoinLeft {
			if len(par.kids) == 2 && par.kids[1] == cur {
				return par
			}
		}
		if par.kind == alt.JoinFull {
			return par
		}
	}
	return nil
}

func lowestCovering(n *joinNode, vars map[string]bool) *joinNode {
	if !covers(n, vars) {
		return nil
	}
	for _, k := range n.kids {
		if covers(k, vars) {
			return lowestCovering(k, vars)
		}
	}
	return n
}

func covers(n *joinNode, vars map[string]bool) bool {
	for v := range vars {
		if !n.vars[v] {
			return false
		}
	}
	return true
}

// effPredKind is the predicate kind as the evaluator sees it: a syntactic
// assignment whose "head" is the head of an abstract relation is really a
// comparison against a parameter value (Section 2.13.2 — abstract-relation
// heads are inputs at the use site, not assignment targets).
func (ev *evaluator) effPredKind(p *alt.Pred) alt.PredKind {
	link := ev.curLink()
	kind := link.Preds[p]
	if kind != alt.PredAssignment {
		return kind
	}
	head := p.Left
	if link.HeadSide[p] == 1 {
		head = p.Right
	}
	if r, ok := head.(*alt.AttrRef); ok {
		if res, ok := link.Refs[r]; ok && res.Kind == alt.RefHead {
			if _, abs := ev.cat.abstract[res.Col.Head.Rel]; abs && ev.cat.abstract[res.Col.Head.Rel] == res.Col {
				return alt.PredComparison
			}
		}
	}
	return kind
}

// containsAssignment reports whether f contains a head-assignment
// predicate (not descending into nested collection sources, whose
// assignments target their own heads).
func (ev *evaluator) containsAssignment(f alt.Formula) bool {
	switch x := f.(type) {
	case *alt.Pred:
		return ev.effPredKind(x) == alt.PredAssignment
	case *alt.And:
		for _, k := range x.Kids {
			if ev.containsAssignment(k) {
				return true
			}
		}
	case *alt.Or:
		for _, k := range x.Kids {
			if ev.containsAssignment(k) {
				return true
			}
		}
	case *alt.Not:
		return ev.containsAssignment(x.Kid)
	case *alt.Quantifier:
		return ev.containsAssignment(x.Body)
	}
	return false
}

func collectAggs(p *alt.Pred, dst []*alt.Agg) []*alt.Agg {
	var walk func(t alt.Term)
	walk = func(t alt.Term) {
		switch x := t.(type) {
		case *alt.Agg:
			dst = append(dst, x)
		case *alt.Arith:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(p.Left)
	walk(p.Right)
	return dst
}
