// Package datalog is the Datalog modality over the ARC core (Sections
// 2.5, 2.6, 2.9): a parser for rules with negation, comparisons,
// arithmetic assignment, and Soufflé-style aggregates
// ("sm = sum b : {S(a,b), a < ak}"), and the translation of programs into
// ARC (translate.go). There is no Datalog executor: EvalPredicate lowers
// the program (Lower: one collection per derived predicate, after the
// arity, EDB/IDB-clash and stratification checks) and internal/eval runs
// it under Soufflé's conventions (no NULL, sum over the empty set is 0),
// recursion included.
package datalog

import (
	"strings"

	"repro/internal/value"
)

// Program is a list of rules (and, implicitly, the EDB they run against).
type Program struct {
	Rules []*Rule
}

// String renders the program in Soufflé-like syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Rule is "Head :- Body." (an empty body is a fact).
type Rule struct {
	Head Atom
	Body []Literal
}

// String renders the rule.
func (r *Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Atom is a predicate application P(t1, …, tk).
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Term is a Datalog term: variable, constant, or wildcard.
type Term interface {
	isTerm()
	String() string
}

// Var is a (lowercase) variable.
type Var struct{ Name string }

func (Var) isTerm() {}

// String renders the variable name.
func (v Var) String() string { return v.Name }

// Const is a literal constant.
type Const struct{ Val value.Value }

func (Const) isTerm() {}

// String renders the literal (strings in double quotes, Soufflé style).
func (c Const) String() string {
	if c.Val.Kind() == value.KindString {
		return "\"" + c.Val.AsString() + "\""
	}
	return c.Val.String()
}

// Wildcard is "_".
type Wildcard struct{}

func (Wildcard) isTerm() {}

// String renders "_".
func (Wildcard) String() string { return "_" }

// Literal is a body element.
type Literal interface {
	isLiteral()
	String() string
}

// PosAtom is a positive atom.
type PosAtom struct{ Atom Atom }

func (PosAtom) isLiteral() {}

// String renders the atom.
func (l PosAtom) String() string { return l.Atom.String() }

// NegAtom is a negated atom "!P(…)".
type NegAtom struct{ Atom Atom }

func (NegAtom) isLiteral() {}

// String renders "!atom".
func (l NegAtom) String() string { return "!" + l.Atom.String() }

// Expr is an arithmetic expression over terms.
type Expr interface {
	isExpr()
	String() string
}

// TermExpr wraps a term as an expression.
type TermExpr struct{ T Term }

func (TermExpr) isExpr() {}

// String renders the term.
func (e TermExpr) String() string { return e.T.String() }

// BinExpr is binary arithmetic.
type BinExpr struct {
	Op   rune // + - * /
	L, R Expr
}

func (BinExpr) isExpr() {}

// String renders "(l op r)".
func (e BinExpr) String() string {
	return "(" + e.L.String() + string(e.Op) + e.R.String() + ")"
}

// Cmp is a comparison literal "x < y". An equality whose one side is a
// lone variable nothing else grounds is an assignment ("y = x*2+1"); the
// translator decides.
type Cmp struct {
	Op   value.CmpOp
	L, R Expr
}

func (Cmp) isLiteral() {}

// String renders "l op r" (Soufflé spells ≠ as "!=").
func (c Cmp) String() string {
	op := c.Op.String()
	if c.Op == value.Ne {
		op = "!="
	}
	return c.L.String() + " " + op + " " + c.R.String()
}

// AggLiteral is Soufflé's aggregate: "res = func expr : {body}". Per the
// Soufflé documentation quoted in Section 2.5, variables grounded inside
// the aggregate body do not export to the outer scope; outer variables
// act as parameters.
type AggLiteral struct {
	Result string
	Func   string // sum, count, min, max, mean
	Expr   Expr   // aggregated expression (nil for count)
	Body   []Literal
}

func (AggLiteral) isLiteral() {}

// String renders "res = func e : {body}".
func (a AggLiteral) String() string {
	parts := make([]string, len(a.Body))
	for i, l := range a.Body {
		parts[i] = l.String()
	}
	e := ""
	if a.Expr != nil {
		e = " " + a.Expr.String()
	}
	return a.Result + " = " + a.Func + e + " : {" + strings.Join(parts, ", ") + "}"
}
