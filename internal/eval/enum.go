package eval

import (
	"fmt"
	"sort"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/value"
)

// enumNode enumerates the environments of one join-tree node, extending
// base. Inner nodes nest loops left to right (with access-pattern-aware
// reordering for external/abstract leaves); left/full nodes implement the
// outer-join semantics of Section 2.11 with their attached ON predicates.
// bound tracks the scope-local variables already enumerated on this path,
// so that index probes never read a local variable's value before its own
// leaf binds it (which would silently resolve to a shadowed outer
// variable of the same name).
func (ev *evaluator) enumNode(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	if n.isLeaf() {
		return ev.enumerateLeaf(n.leaf, base, si, bound)
	}
	switch n.kind {
	case alt.JoinInner:
		return ev.enumInner(n, base, si, bound)
	case alt.JoinLeft:
		return ev.enumLeft(n, base, si, bound)
	case alt.JoinFull:
		return ev.enumFull(n, base, si, bound)
	}
	return nil, fmt.Errorf("unknown join node kind %v", n.kind)
}

func copyBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound)+2)
	for v := range bound {
		out[v] = true
	}
	return out
}

func (ev *evaluator) enumInner(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	envs := []*env{base}
	remaining := append([]*joinNode(nil), n.kids...)
	bound = copyBound(bound)
	for len(remaining) > 0 {
		if len(envs) == 0 {
			return nil, nil // inner join already empty
		}
		pick := -1
		for i, k := range remaining {
			ready, err := ev.readyNode(k, envs[0], si)
			if err != nil {
				return nil, err
			}
			if ready {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("no binding order satisfies the access patterns of %s", describeLeaves(remaining))
		}
		k := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		var next []*env
		for _, e := range envs {
			exts, err := ev.enumNode(k, e, si, bound)
			if err != nil {
				return nil, err
			}
			next = append(next, exts...)
		}
		envs = next
		for v := range k.vars {
			bound[v] = true
		}
	}
	return envs, nil
}

func (ev *evaluator) enumLeft(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	lefts, err := ev.enumNode(n.kids[0], base, si, bound)
	if err != nil {
		return nil, err
	}
	if out, handled, err := ev.enumLeftHashed(n, base, lefts, si, bound); handled || err != nil {
		return out, err
	}
	rightBound := copyBound(bound)
	for v := range n.kids[0].vars {
		rightBound[v] = true
	}
	var out []*env
	for _, l := range lefts {
		rights, err := ev.enumNode(n.kids[1], l, si, rightBound)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, r := range rights {
			ok, err := ev.onHolds(n, r)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				out = append(out, r)
			}
		}
		if !matched {
			ne, err := ev.nullExtend(l, n.kids[1])
			if err != nil {
				return nil, err
			}
			out = append(out, ne)
		}
	}
	return out, nil
}

// enumLeftHashed joins a LEFT node by enumerating and hashing the right
// subtree once instead of re-enumerating it per left environment. Sound
// only when the right subtree enumerates independently of the left
// bindings — a multi-leaf subtree over plain relation sources (no
// lateral collection sources, externals, or abstract relations, whose
// enumeration depends on bound inputs) — and every ON conjunct is a
// separable equality, hashed as the bucket key and still re-checked per
// candidate by onHolds (so NULL keys and per-pair evaluation errors keep
// exact baseline semantics; erroring right keys overflow to every left,
// as in enumFull). Single-leaf rights keep the per-left path, whose index
// probes already make them cheap.
func (ev *evaluator) enumLeftHashed(n *joinNode, base *env, lefts []*env, si *scopeInfo, bound map[string]bool) ([]*env, bool, error) {
	if ev.reference {
		return nil, false, nil
	}
	leaves, plain := ev.plainSubtree(n.kids[1])
	if leaves < 2 || !plain || len(lefts) == 0 {
		return nil, false, nil
	}
	eqs := splitFullEqs(n)
	if len(eqs) == 0 || len(eqs) != len(n.on) {
		return nil, false, nil
	}
	rights, err := ev.enumNode(n.kids[1], base, si, copyBound(bound))
	if err != nil {
		return nil, false, err
	}
	h := ev.hashRightEnvs(eqs, rights)
	var out []*env
	for _, l := range lefts {
		primary, extra := h.candidatesOf(l)
		matched := false
		for _, cands := range [2][]int{primary, extra} {
			for _, ri := range cands {
				m := ev.mergeEnvs(base, l, rights[ri], n.kids[1])
				ok, err := ev.onHolds(n, m)
				if err != nil {
					return nil, false, err
				}
				if ok {
					matched = true
					out = append(out, m)
				}
			}
		}
		if !matched {
			ne, err := ev.nullExtend(l, n.kids[1])
			if err != nil {
				return nil, false, err
			}
			out = append(out, ne)
		}
	}
	return out, true, nil
}

// plainSubtree counts the leaves of a join subtree and reports whether
// every leaf ranges over a plain relation source (constant, recursion
// override, base relation, or view) — the sources whose enumeration
// never depends on previously bound variables.
func (ev *evaluator) plainSubtree(n *joinNode) (int, bool) {
	if n.isLeaf() {
		b := n.leaf
		_, isConst := ev.curLink().ConstOfBinding[b]
		return 1, b.Sub == nil && (isConst || ev.stored(b.Rel)) // a nested collection is lateral
	}
	count, plain := 0, true
	for _, k := range n.kids {
		c, p := ev.plainSubtree(k)
		count += c
		plain = plain && p
	}
	return count, plain
}

func (ev *evaluator) enumFull(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	lefts, err := ev.enumNode(n.kids[0], base, si, bound)
	if err != nil {
		return nil, err
	}
	rights, err := ev.enumNode(n.kids[1], base, si, bound)
	if err != nil {
		return nil, err
	}
	// Separable ON equalities (one side readable from each subtree) hash
	// the right envs so each left env only visits its key bucket; the
	// full ON condition is still re-checked per candidate, so NULL keys
	// keep exact semantics. Empty sides fall through to the nested path,
	// which then only null-extends. Hashing is only used when every ON
	// conjunct is an extracted equality: with residual conjuncts, pruning
	// a pair could also prune a per-pair evaluation error the nested path
	// would surface.
	eqs := splitFullEqs(n)
	h := allRightCandidates(len(rights))
	if len(eqs) == len(n.on) && len(eqs) > 0 && len(lefts) > 0 && len(rights) > 0 {
		h = ev.hashRightEnvs(eqs, rights)
	}
	matchedR := make([]bool, len(rights))
	var out []*env
	for _, l := range lefts {
		matched := false
		primary, extra := h.candidatesOf(l)
		for _, cands := range [2][]int{primary, extra} {
			for _, ri := range cands {
				m := ev.mergeEnvs(base, l, rights[ri], n.kids[1])
				ok, err := ev.onHolds(n, m)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					matchedR[ri] = true
					out = append(out, m)
				}
			}
		}
		if !matched {
			ne, err := ev.nullExtend(l, n.kids[1])
			if err != nil {
				return nil, err
			}
			out = append(out, ne)
		}
	}
	for ri, r := range rights {
		if matchedR[ri] {
			continue
		}
		ne, err := ev.nullExtend(r, n.kids[0])
		if err != nil {
			return nil, err
		}
		out = append(out, ne)
	}
	return out, nil
}

// rightEnvHash buckets a join node's right-side environments by their
// separable-equality key terms, shared by enumFull and enumLeftHashed.
// Rights whose key terms error (the nested path may never evaluate them
// — an earlier ON conjunct can short-circuit) go to the overflow list,
// staying candidates for every left so onHolds reproduces baseline
// behaviour exactly.
type rightEnvHash struct {
	ev       *evaluator
	eqs      []fullEq
	buckets  map[string][]int
	overflow []int
	all      []int
	kb       []byte
}

// allRightCandidates is the no-hash baseline: every left visits every
// right.
func allRightCandidates(n int) *rightEnvHash {
	h := &rightEnvHash{all: make([]int, n)}
	for i := range h.all {
		h.all[i] = i
	}
	return h
}

// hashRightEnvs builds the bucket+overflow index over rights.
func (ev *evaluator) hashRightEnvs(eqs []fullEq, rights []*env) *rightEnvHash {
	h := allRightCandidates(len(rights))
	h.ev = ev
	h.eqs = eqs
	h.buckets = map[string][]int{}
	for ri, r := range rights {
		h.kb = h.kb[:0]
		evaluable := true
		for _, eq := range eqs {
			v, err := ev.evalTermAgg(eq.right, r, nil)
			if err != nil {
				evaluable = false
				break
			}
			h.kb = v.AppendKey(h.kb)
			h.kb = append(h.kb, '\x1f')
		}
		if evaluable {
			h.buckets[string(h.kb)] = append(h.buckets[string(h.kb)], ri)
		} else {
			h.overflow = append(h.overflow, ri)
		}
	}
	return h
}

// candidatesOf returns the right indexes a left env must visit: its key
// bucket plus the overflow, or every right when hashing is off or the
// left key is unevaluable.
func (h *rightEnvHash) candidatesOf(l *env) ([]int, []int) {
	if h.buckets == nil {
		return h.all, nil
	}
	h.kb = h.kb[:0]
	for _, eq := range h.eqs {
		v, err := h.ev.evalTermAgg(eq.left, l, nil)
		if err != nil {
			return h.all, nil
		}
		h.kb = v.AppendKey(h.kb)
		h.kb = append(h.kb, '\x1f')
	}
	return h.buckets[string(h.kb)], h.overflow
}

// fullEq is one hashable ON equality of a FULL-join node: left is
// evaluable from the left subtree's envs, right from the right's.
type fullEq struct {
	left, right alt.Term
}

// splitFullEqs extracts the ON equality conjuncts usable as hash keys: a
// plain equality whose sides read disjoint subtrees (either side may
// also read outer variables, which both envs carry). Every conjunct is
// re-checked by onHolds per candidate, so extraction only prunes.
func splitFullEqs(n *joinNode) []fullEq {
	var eqs []fullEq
	for _, f := range n.on {
		p, ok := f.(*alt.Pred)
		if !ok || p.Op != value.Eq || alt.ContainsAgg(p.Left) || alt.ContainsAgg(p.Right) {
			continue
		}
		leftVars, rightVars := n.kids[0].vars, n.kids[1].vars
		switch {
		case !refersAnySubtreeVar(p.Left, rightVars) && !refersAnySubtreeVar(p.Right, leftVars) &&
			(refersAnySubtreeVar(p.Left, leftVars) || refersAnySubtreeVar(p.Right, rightVars)):
			eqs = append(eqs, fullEq{left: p.Left, right: p.Right})
		case !refersAnySubtreeVar(p.Right, rightVars) && !refersAnySubtreeVar(p.Left, leftVars) &&
			(refersAnySubtreeVar(p.Right, leftVars) || refersAnySubtreeVar(p.Left, rightVars)):
			eqs = append(eqs, fullEq{left: p.Right, right: p.Left})
		}
	}
	return eqs
}

// refersAnySubtreeVar reports whether t references any variable of the
// given subtree var set.
func refersAnySubtreeVar(t alt.Term, vars map[string]bool) bool {
	for _, r := range alt.TermAttrRefs(t, nil) {
		if vars[r.Var] {
			return true
		}
	}
	return false
}

// onHolds evaluates a left/full node's ON predicates in env e.
func (ev *evaluator) onHolds(n *joinNode, e *env) (bool, error) {
	for _, p := range n.on {
		tv, err := ev.evalTV(p, e)
		if err != nil {
			return false, err
		}
		if !tv.Holds() {
			return false, nil
		}
	}
	return true, nil
}

// mergeEnvs combines a left and right extension of the same base env for
// full joins; the weight divides out the shared base weight.
func (ev *evaluator) mergeEnvs(base, l, r *env, rightSub *joinNode) *env {
	vars := make(map[string]varVals, len(l.vars)+len(rightSub.vars))
	for k, v := range l.vars {
		vars[k] = v
	}
	for v := range rightSub.vars {
		if vv, ok := r.vars[v]; ok {
			vars[v] = vv
		}
	}
	w := l.weight * r.weight
	if base.weight > 0 {
		w /= base.weight
	}
	return &env{vars: vars, weight: w}
}

// nullExtend extends e with all-NULL tuples for every binding under sub
// (the unmatched side of an outer join).
func (ev *evaluator) nullExtend(e *env, sub *joinNode) (*env, error) {
	out := e
	var walk func(n *joinNode) error
	walk = func(n *joinNode) error {
		if n.isLeaf() {
			attrs, err := ev.sourceAttrs(n.leaf)
			if err != nil {
				return err
			}
			vals := make(varVals, len(attrs))
			for _, a := range attrs {
				vals[a] = value.Null()
			}
			out = out.extend(n.leaf.Var, vals, 1)
			return nil
		}
		for _, k := range n.kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(sub); err != nil {
		return nil, err
	}
	return out, nil
}

// readyNode reports whether a join-tree node can be enumerated given the
// variables currently bound in e: external and abstract leaves need their
// access patterns satisfied; everything else is always ready.
func (ev *evaluator) readyNode(n *joinNode, e *env, si *scopeInfo) (bool, error) {
	if !n.isLeaf() {
		return true, nil
	}
	b := n.leaf
	if b.Sub != nil || b.Rel == "" {
		return true, nil
	}
	if _, isConst := ev.curLink().ConstOfBinding[b]; isConst || ev.stored(b.Rel) {
		return true, nil
	}
	if ext, ok := ev.cat.externals[b.Rel]; ok {
		bound, _, err := ev.boundInputs(b, e, si)
		if err != nil {
			return false, err
		}
		names := map[string]bool{}
		for k := range bound {
			names[k] = true
		}
		return ext.CanEnumerate(names), nil
	}
	if abs, ok := ev.cat.abstract[b.Rel]; ok {
		bound, _, err := ev.boundInputs(b, e, si)
		if err != nil {
			return false, err
		}
		for _, a := range abs.Head.Attrs {
			if _, ok := bound[a]; !ok {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown relation %q", b.Rel)
}

// boundInputs derives attribute values for an external/abstract binding
// from the scope's equality predicates whose other side is evaluable in
// the current environment — the access-pattern mechanism of Section 2.13.
func (ev *evaluator) boundInputs(b *alt.Binding, e *env, si *scopeInfo) (map[string]value.Value, []*alt.Pred, error) {
	return ev.eqInputs(b, e, si, nil)
}

// probeInputs is boundInputs restricted to predicates that are safe to
// use as index probes: predicates on a FULL-join node's ON list are
// excluded (unmatched full-join rows null-extend without any ON
// re-check, so a probe would drop them), and so are predicates whose
// other side reads a scope-local variable not yet enumerated on this
// path — its env value, if present, belongs to a shadowed outer
// variable of the same name. enumed is that path's enumerated-local set.
func (ev *evaluator) probeInputs(b *alt.Binding, e *env, si *scopeInfo, enumed map[string]bool) (map[string]value.Value, []*alt.Pred, error) {
	if enumed == nil {
		enumed = map[string]bool{}
	}
	return ev.eqInputs(b, e, si, enumed)
}

// eqInputs feeds both boundInputs (enumed == nil: the seed access-pattern
// behaviour for externals/abstract relations) and probeInputs (enumed !=
// nil: the probe-safety filters apply).
func (ev *evaluator) eqInputs(b *alt.Binding, e *env, si *scopeInfo, enumed map[string]bool) (map[string]value.Value, []*alt.Pred, error) {
	bound := map[string]value.Value{}
	var used []*alt.Pred
	for _, p := range si.eqPreds {
		if enumed != nil && si.fullOn[p] {
			continue
		}
		for _, side := range [2]int{0, 1} {
			var me, other alt.Term
			if side == 0 {
				me, other = p.Left, p.Right
			} else {
				me, other = p.Right, p.Left
			}
			ref, ok := me.(*alt.AttrRef)
			if !ok || ref.Var != b.Var {
				continue
			}
			if refersToVar(other, b.Var) {
				continue
			}
			if enumed != nil && ev.readsUnenumeratedLocal(other, si, enumed) {
				continue
			}
			v, err := ev.evalTermAgg(other, e, nil)
			if err != nil {
				continue // other side not yet evaluable in this order
			}
			bound[ref.Attr] = v
			used = append(used, p)
		}
	}
	return bound, used, nil
}

// readsUnenumeratedLocal reports whether t references a variable bound by
// this scope's quantifier whose leaf has not been enumerated yet on the
// current path — evaluating it now would resolve a shadowed outer
// variable of the same name (or fail), so it must not feed a probe.
func (ev *evaluator) readsUnenumeratedLocal(t alt.Term, si *scopeInfo, enumed map[string]bool) bool {
	link := ev.curLink()
	for _, r := range alt.TermAttrRefs(t, nil) {
		res, ok := link.Refs[r]
		if !ok || res.Kind != alt.RefBinding {
			continue
		}
		if link.BindingQuantifier[res.Binding] == si.q && !enumed[r.Var] {
			return true
		}
	}
	return false
}

func refersToVar(t alt.Term, v string) bool {
	for _, r := range alt.TermAttrRefs(t, nil) {
		if r.Var == v {
			return true
		}
	}
	return false
}

func describeLeaves(nodes []*joinNode) string {
	out := ""
	for _, n := range nodes {
		if n.isLeaf() {
			if out != "" {
				out += ", "
			}
			out += n.leaf.String()
		}
	}
	if out == "" {
		return "join subtree"
	}
	return out
}

// enumerateLeaf extends e with every tuple of one binding's source.
func (ev *evaluator) enumerateLeaf(b *alt.Binding, e *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	link := ev.curLink()
	if v, isConst := link.ConstOfBinding[b]; isConst {
		return []*env{e.extend(b.Var, varVals{"val": v}, 1)}, nil
	}
	if b.Sub != nil {
		rel, err := ev.evalSubCollection(b.Sub, e)
		if err != nil {
			return nil, err
		}
		return ev.bindRelation(b, rel, e, si, bound)
	}
	if ev.stored(b.Rel) {
		rel, err := ev.relation(b.Rel)
		if err != nil {
			return nil, err
		}
		return ev.bindRelation(b, rel, e, si, bound)
	}
	if ext, ok := ev.cat.externals[b.Rel]; ok {
		return ev.enumExternal(b, ext, e, si)
	}
	if abs, ok := ev.cat.abstract[b.Rel]; ok {
		return ev.enumAbstract(b, abs, e, si)
	}
	return nil, fmt.Errorf("unknown relation %q", b.Rel)
}

// stored reports whether name is a relation the evaluator holds: a
// recursion override or input, a base relation, or a view.
func (ev *evaluator) stored(name string) bool {
	ev.note(name)
	_, override := ev.overrides[name]
	_, view := ev.cat.views[name]
	return override || ev.base[name] != nil || view
}

// relation resolves a stored relation's name in that order: overrides
// and inputs shadow base relations, which shadow views.
func (ev *evaluator) relation(name string) (*relation.Relation, error) {
	if rel, ok := ev.overrides[name]; ok {
		return rel, nil
	}
	if rel := ev.base[name]; rel != nil {
		return rel, nil
	}
	if _, ok := ev.cat.views[name]; ok {
		return ev.evalView(name)
	}
	return nil, fmt.Errorf("unknown relation %q", name)
}

// bindRelation extends e with the tuples of rel bound to b.Var. When the
// scope has equality predicates connecting b's attributes to terms already
// evaluable in e, enumeration probes rel's lazy hash index on those
// attributes instead of scanning — the probe only drops tuples the WHERE
// (or ON) stage would reject anyway, since every probe predicate is
// re-checked there.
func (ev *evaluator) bindRelation(b *alt.Binding, rel *relation.Relation, e *env, si *scopeInfo, enumed map[string]bool) ([]*env, error) {
	bound, _, err := ev.probeInputs(b, e, si, enumed)
	if err != nil {
		return nil, err
	}
	var probeAttrs []string
	for a := range bound {
		if rel.AttrIndex(a) >= 0 {
			probeAttrs = append(probeAttrs, a)
		}
	}
	seq := exec.Scan(rel)
	if len(probeAttrs) > 0 {
		sort.Strings(probeAttrs) // one canonical index per attribute set
		cols := make([]int, len(probeAttrs))
		vals := make([]value.Value, len(probeAttrs))
		for i, a := range probeAttrs {
			cols[i] = rel.AttrIndex(a)
			vals[i] = bound[a]
		}
		seq = exec.Probe(rel, cols, vals)
	}
	var out []*env
	attrs := rel.Attrs()
	for t, mult := range seq {
		if err := ev.poll(); err != nil {
			return nil, err
		}
		vals := make(varVals, len(attrs))
		for i, a := range attrs {
			vals[a] = t[i]
		}
		w := 1
		if ev.conv.Semantics == convention.Bag {
			w = mult
		}
		out = append(out, e.extend(b.Var, vals, w))
	}
	return out, nil
}

// evalSubCollection evaluates a nested collection source laterally: once
// per outer environment, with the outer variables visible (Section 2.4).
func (ev *evaluator) evalSubCollection(c *alt.Collection, e *env) (*relation.Relation, error) {
	link := ev.curLink()
	if link.RecursiveCols[c] {
		totals, err := ev.evalRecursive(ev.groupOf(c, link, true), e)
		return totals[c.Head.Rel], err
	}
	return ev.evalOnce(c, e)
}

// evalView evaluates an intensional relation (view/CTE) once per
// evaluation; views may be recursive, on their own or mutually.
func (ev *evaluator) evalView(name string) (*relation.Relation, error) {
	if rel, ok := ev.viewCache[name]; ok {
		return rel, nil
	}
	rel, err := ev.evalCollection(ev.cat.views[name], ev.cat.viewLinks[name], newEnv())
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	ev.cacheView(name, rel)
	return rel, nil
}

// enumExternal enumerates an external relation leaf through its access
// pattern (Section 2.13.1).
func (ev *evaluator) enumExternal(b *alt.Binding, ext External, e *env, si *scopeInfo) ([]*env, error) {
	bound, _, err := ev.boundInputs(b, e, si)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for k := range bound {
		names[k] = true
	}
	if !ext.CanEnumerate(names) {
		return nil, fmt.Errorf("external relation %s: access pattern unsatisfied (bound: %v)", ext.Name(), boundAttrs(bound))
	}
	rows, err := ext.Enumerate(bound)
	if err != nil {
		return nil, err
	}
	var out []*env
	for _, row := range rows {
		vals := make(varVals, len(row))
		for k, v := range row {
			vals[k] = v
		}
		out = append(out, e.extend(b.Var, vals, 1))
	}
	return out, nil
}

// enumAbstract enumerates an abstract relation leaf (Section 2.13.2):
// every head attribute must be determined by equality predicates at the
// use site; the definition's body is then evaluated as a Boolean with the
// head bound to those values.
func (ev *evaluator) enumAbstract(b *alt.Binding, abs *alt.Collection, e *env, si *scopeInfo) ([]*env, error) {
	bound, _, err := ev.boundInputs(b, e, si)
	if err != nil {
		return nil, err
	}
	vals := make(varVals, len(abs.Head.Attrs))
	for _, a := range abs.Head.Attrs {
		v, ok := bound[a]
		if !ok {
			return nil, fmt.Errorf("abstract relation %s: parameter %q not determined by equality predicates at the use site", abs.Head.Rel, a)
		}
		vals[a] = v
	}
	absLink := ev.cat.absLinks[abs.Head.Rel]
	ev.pushLink(absLink)
	inner := newEnv().extend(abs.Head.Rel, vals, 1)
	tv, err := ev.evalTV(abs.Body, inner)
	ev.popLink()
	if err != nil {
		return nil, fmt.Errorf("abstract relation %s: %w", abs.Head.Rel, err)
	}
	if tv.Holds() {
		return []*env{e.extend(b.Var, vals, 1)}, nil
	}
	return nil, nil
}

// sourceAttrs resolves the attribute list of a binding's source.
func (ev *evaluator) sourceAttrs(b *alt.Binding) ([]string, error) {
	link := ev.curLink()
	if _, isConst := link.ConstOfBinding[b]; isConst {
		return []string{"val"}, nil
	}
	if b.Sub != nil {
		return b.Sub.Head.Attrs, nil
	}
	ev.note(b.Rel)
	if rel, ok := ev.overrides[b.Rel]; ok {
		return rel.Attrs(), nil
	}
	if rel := ev.base[b.Rel]; rel != nil {
		return rel.Attrs(), nil
	}
	if v, ok := ev.cat.views[b.Rel]; ok {
		return v.Head.Attrs, nil
	}
	if ext, ok := ev.cat.externals[b.Rel]; ok {
		return ext.Attrs(), nil
	}
	if a, ok := ev.cat.abstract[b.Rel]; ok {
		return a.Head.Attrs, nil
	}
	return nil, fmt.Errorf("unknown relation %q", b.Rel)
}
