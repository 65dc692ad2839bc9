// Package eval implements the ARC evaluator: the paper's "conceptual
// evaluation strategy" (Section 2.3) over linked Abstract Language Trees —
// nested loops over bindings, lateral re-evaluation of nested collections,
// grouping scopes with parallel aggregates (Section 2.5), join annotations
// (Section 2.11), negation and disjunction, least-fixed-point recursion
// (Section 2.9), and external/abstract relations via access patterns
// (Section 2.13). Conventions (set/bag, 2VL/3VL, aggregate initialization)
// are environment parameters, never part of the query.
package eval

import (
	"fmt"

	"repro/internal/alt"
	"repro/internal/relation"
)

// Catalog is the environment a query runs against: base relations,
// intensional relations (views/CTEs), abstract relations, and external
// relations (built-ins).
type Catalog struct {
	base      map[string]*relation.Relation
	views     map[string]*alt.Collection
	viewLinks map[string]*alt.Link
	abstract  map[string]*alt.Collection
	absLinks  map[string]*alt.Link
	externals map[string]External
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		base:      make(map[string]*relation.Relation),
		views:     make(map[string]*alt.Collection),
		viewLinks: make(map[string]*alt.Link),
		abstract:  make(map[string]*alt.Collection),
		absLinks:  make(map[string]*alt.Link),
		externals: make(map[string]External),
	}
}

// AddRelation registers a base relation under its own name.
func (c *Catalog) AddRelation(r *relation.Relation) *Catalog {
	c.base[r.Name()] = r
	return c
}

// Relation returns the base relation with the given name, or nil.
func (c *Catalog) Relation(name string) *relation.Relation { return c.base[name] }

// BaseRelations lists the registered base relations (order unspecified).
func (c *Catalog) BaseRelations() []*relation.Relation {
	out := make([]*relation.Relation, 0, len(c.base))
	for _, r := range c.base {
		out = append(out, r)
	}
	return out
}

// DefineView registers an intensional relation (view/CTE): a strictly
// valid collection evaluated on demand and cached per evaluation.
func (c *Catalog) DefineView(col *alt.Collection) error {
	link, err := alt.ValidateCollection(col)
	if err != nil {
		return fmt.Errorf("view %s: %w", col.Head.Rel, err)
	}
	c.views[col.Head.Rel] = col
	c.viewLinks[col.Head.Rel] = link
	return nil
}

// DefineAbstract registers an abstract relation (Section 2.13.2): a
// definition that may be unsafe in isolation; its head attributes act as
// parameters supplied by equality predicates at each use site.
func (c *Catalog) DefineAbstract(col *alt.Collection) error {
	link, err := alt.ValidateAbstract(col)
	if err != nil {
		return fmt.Errorf("abstract relation %s: %w", col.Head.Rel, err)
	}
	c.abstract[col.Head.Rel] = col
	c.absLinks[col.Head.Rel] = link
	return nil
}

// AddExternal registers an external relation (built-in).
func (c *Catalog) AddExternal(e External) *Catalog {
	c.externals[e.Name()] = e
	return c
}

// WithStandardExternals registers the arithmetic and comparison built-ins
// used by the paper's Section 2.13 and Section 3.1 examples: "Minus",
// "Add", "Times", "Bigger", and the symbolic aliases "-", "+", "*", ">".
func (c *Catalog) WithStandardExternals() *Catalog {
	for _, e := range StandardExternals() {
		c.AddExternal(e)
	}
	return c
}
