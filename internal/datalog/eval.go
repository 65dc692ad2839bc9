package datalog

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/alt"
	"repro/internal/convention"
	"repro/internal/eval"
	"repro/internal/fixpoint"
	"repro/internal/relation"
)

// EDB maps extensional predicate names to relations.
type EDB map[string]*relation.Relation

// EvalProgram evaluates a stratified Datalog program over an EDB and
// returns every IDB relation. Semantics follow Soufflé's conventions
// (Section 2.6): no NULLs, two-valued logic, sum/count over an empty
// aggregate body yield 0, min/max/mean over an empty body fail (derive
// nothing). It is one EvalPredicate per derived predicate — a convenience
// for tests and tools, not a serving path.
func EvalProgram(p *Program, edb EDB) (map[string]*relation.Relation, error) {
	out := map[string]*relation.Relation{}
	for _, r := range p.Rules {
		if out[r.Head.Pred] != nil {
			continue
		}
		rel, err := EvalPredicate(p, edb, r.Head.Pred)
		if err != nil {
			return nil, err
		}
		out[r.Head.Pred] = rel
	}
	return out, nil
}

// EvalPredicate evaluates the program and returns one predicate: the
// program is lowered to ARC and run by internal/eval under Soufflé
// conventions, with the EDB bound through the evaluator's input slot.
func EvalPredicate(p *Program, edb EDB, pred string) (*relation.Relation, error) {
	schemas := make(map[string][]string, len(edb))
	for name, r := range edb {
		schemas[name] = r.Attrs()
	}
	cat := eval.NewCatalog()
	col, link, err := Lower(p, schemas, pred, cat)
	if err != nil {
		return nil, err
	}
	return eval.Prepare(col, link, cat, convention.Souffle(), nil, edb).Eval(nil, edb, nil, nil)
}

// Lower prepares a program for internal/eval: every derived predicate
// becomes an ARC collection (ToARC, with positional attributes x1..xk);
// pred's collection is returned with its link as the query and the
// others are registered as views of cat, so mutually recursive
// predicates run as one fixpoint there. schemas names the attributes of
// the extensional predicates — atoms are positional, ARC is named.
// Programs that define an extensional predicate, use a predicate at two
// arities, or recurse through negation or aggregation are rejected.
func Lower(p *Program, schemas map[string][]string, pred string, cat *eval.Catalog) (*alt.Collection, *alt.Link, error) {
	full := make(map[string][]string, len(schemas))
	for name, attrs := range schemas {
		full[name] = attrs
	}
	idb := map[string]bool{}
	var derived []string // in program order
	for _, r := range p.Rules {
		name := r.Head.Pred
		if _, isEDB := schemas[name]; isEDB {
			return nil, nil, fmt.Errorf("datalog: predicate %s is both extensional and derived", name)
		}
		if !idb[name] {
			idb[name] = true
			derived = append(derived, name)
			full[name] = schemaFor(nil, name, len(r.Head.Args))
		}
	}
	if !idb[pred] {
		return nil, nil, fmt.Errorf("datalog: predicate %q is not derived by the program", pred)
	}
	if err := checkStratified(p, idb); err != nil {
		return nil, nil, err
	}
	var target *alt.Collection
	for _, name := range derived {
		col, err := ToARC(p, full, name)
		if err != nil {
			return nil, nil, err
		}
		if name == pred {
			target = col
			continue
		}
		if err := cat.DefineView(col); err != nil {
			return nil, nil, fmt.Errorf("datalog: %w", err)
		}
	}
	link, err := alt.ValidateCollection(target)
	if err != nil {
		return nil, nil, fmt.Errorf("datalog: %s: %w", pred, err)
	}
	return target, link, nil
}

// checkStratified rejects programs in which a predicate depends on its
// own stratum through negation or aggregation: everything negated or
// inside an aggregate body must be complete before it is read.
func checkStratified(p *Program, idb map[string]bool) error {
	var deps []fixpoint.Dep
	for _, r := range p.Rules {
		walkAtoms(r.Body, false, func(a Atom, strict bool) {
			deps = append(deps, fixpoint.Dep{Head: r.Head.Pred, Dep: a.Pred, Strict: strict})
		})
	}
	if _, _, err := fixpoint.Stratify(idb, deps); err != nil {
		return fmt.Errorf("datalog: program is not stratifiable (negation or aggregation through recursion)")
	}
	return nil
}

// Predicates lists every predicate name the program mentions, rule heads
// and body atoms alike (order unspecified) — the names whose presence
// and schema in the database a lowering (Lower) depends on.
func (p *Program) Predicates() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		seen[r.Head.Pred] = true
		walkAtoms(r.Body, false, func(a Atom, _ bool) { seen[a.Pred] = true })
	}
	return slices.Collect(maps.Keys(seen))
}

// walkAtoms visits every atom of a body, descending into aggregate
// bodies; strict marks an occurrence under negation or inside an
// aggregate.
func walkAtoms(body []Literal, strict bool, visit func(a Atom, strict bool)) {
	for _, l := range body {
		switch x := l.(type) {
		case PosAtom:
			visit(x.Atom, strict)
		case NegAtom:
			visit(x.Atom, true)
		case AggLiteral:
			walkAtoms(x.Body, true, visit)
		}
	}
}
