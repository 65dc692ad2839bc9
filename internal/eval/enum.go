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

// enumLeft enumerates a LEFT node: each left environment extended by the
// right subtree enumerated from it, where the ON predicates hold, or
// null-extended when none does.
func (ev *evaluator) enumLeft(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	lefts, err := ev.enumNode(n.kids[0], base, si, bound)
	if err != nil {
		return nil, err
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

// enumFull enumerates a FULL node by the nested loop over both subtrees'
// environments: the pairs the ON predicates hold on, then each side's
// environments that matched nothing, null-extended.
func (ev *evaluator) enumFull(n *joinNode, base *env, si *scopeInfo, bound map[string]bool) ([]*env, error) {
	lefts, err := ev.enumNode(n.kids[0], base, si, bound)
	if err != nil {
		return nil, err
	}
	rights, err := ev.enumNode(n.kids[1], base, si, bound)
	if err != nil {
		return nil, err
	}
	matchedR := make([]bool, len(rights))
	var out []*env
	for _, l := range lefts {
		matched := false
		for ri, r := range rights {
			m := ev.mergeEnvs(base, l, r, n.kids[1])
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
		bound := ev.eqInputs(b, e, si, nil)
		names := map[string]bool{}
		for k := range bound {
			names[k] = true
		}
		return ext.CanEnumerate(names), nil
	}
	if abs, ok := ev.cat.abstract[b.Rel]; ok {
		bound := ev.eqInputs(b, e, si, nil)
		for _, a := range abs.Head.Attrs {
			if _, ok := bound[a]; !ok {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown relation %q", b.Rel)
}

// eqInputs derives attribute values for the binding b from the scope's
// equality predicates whose other side is evaluable in e: the access
// patterns of external and abstract relations (Section 2.13), with
// enumed nil, and the index probes of a stored relation's leaf. A probe
// (enumed, the scope-local variables enumerated on this path) uses no
// predicate on a FULL-join node's ON list — unmatched full-join rows
// null-extend without any ON re-check, so a probe would drop them — and
// none whose other side reads a scope-local variable not enumerated yet:
// its env value, if present, belongs to a shadowed outer variable of the
// same name.
func (ev *evaluator) eqInputs(b *alt.Binding, e *env, si *scopeInfo, enumed map[string]bool) map[string]value.Value {
	bound := map[string]value.Value{}
	for _, p := range si.eqPreds {
		if h := si.home[p]; enumed != nil && h != nil && h.kind == alt.JoinFull {
			continue
		}
		for _, side := range [2][2]alt.Term{{p.Left, p.Right}, {p.Right, p.Left}} {
			me, other := side[0], side[1]
			ref, ok := me.(*alt.AttrRef)
			if !ok || ref.Var != b.Var || refersToVar(other, b.Var) {
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
		}
	}
	return bound
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
	bound := ev.eqInputs(b, e, si, enumed)
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
	bound := ev.eqInputs(b, e, si, nil)
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
	bound := ev.eqInputs(b, e, si, nil)
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
