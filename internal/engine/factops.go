package engine

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/relation"
	"repro/internal/value"
)

// factOp is one fact assertion or retraction in the shared ARC/Datalog
// write syntax:
//
//	+Edge(1, 2).  -Edge(2, 3)  +Label(7, "blue").
//
// '+' asserts one occurrence of the ground tuple, '-' retracts every
// occurrence of it (facts are set-like at the write surface; bag
// multiplicities accumulate through repeated assertions). Operations are
// separated by whitespace, '.', or ';', and arguments are literals only:
// integers, floats, quoted strings ('…' or "…"), true, false, null.
type factOp struct {
	assert bool
	rel    string
	tuple  relation.Tuple
}

// compileFactOps parses a fact-operation batch and validates every
// target against the schema of rels (existence and arity), yielding a
// KindDML statement.
func compileFactOps(src string, rels map[string]*relation.Relation) (*compiled, error) {
	ops, err := parseFactOps(src)
	if err != nil {
		return nil, err
	}
	c := &compiled{kind: KindDML, ops: ops}
	for _, op := range ops {
		target, ok := rels[op.rel]
		if !ok {
			return nil, fmt.Errorf("engine: fact op on unknown relation %q", op.rel)
		}
		if len(op.tuple) != target.Arity() {
			return nil, fmt.Errorf("engine: %s takes %d argument(s), got %d", op.rel, target.Arity(), len(op.tuple))
		}
		c.dependOn(rels, op.rel)
	}
	return c, nil
}

// parseFactOps parses "+Rel(lit, …)" / "-Rel(lit, …)" sequences.
func parseFactOps(src string) ([]factOp, error) {
	p := &factParser{src: src}
	var ops []factOp
	for {
		p.skipSpace()
		if p.done() {
			break
		}
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("engine: empty fact-operation batch")
	}
	return ops, nil
}

type factParser struct {
	src string
	pos int
}

func (p *factParser) done() bool { return p.pos >= len(p.src) }

func (p *factParser) skipSpace() {
	for !p.done() {
		c := p.src[p.pos]
		if c == '.' || c == ';' || unicode.IsSpace(rune(c)) {
			p.pos++
			continue
		}
		break
	}
}

func (p *factParser) errf(format string, args ...any) error {
	return fmt.Errorf("engine: fact ops: %s (at offset %d)", fmt.Sprintf(format, args...), p.pos)
}

func (p *factParser) parseOp() (factOp, error) {
	var op factOp
	switch p.src[p.pos] {
	case '+':
		op.assert = true
	case '-':
	default:
		return op, p.errf("expected '+' or '-', found %q", p.src[p.pos])
	}
	p.pos++
	p.skipSpace()
	name, err := p.parseIdent()
	if err != nil {
		return op, err
	}
	op.rel = name
	p.skipSpace()
	if p.done() || p.src[p.pos] != '(' {
		return op, p.errf("expected '(' after relation %q", name)
	}
	p.pos++
	p.skipSpace()
	if !p.done() && p.src[p.pos] == ')' {
		p.pos++
		return op, nil
	}
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return op, err
		}
		op.tuple = append(op.tuple, v)
		p.skipSpace()
		if p.done() {
			return op, p.errf("unterminated argument list of %q", name)
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
			p.skipSpace()
		case ')':
			p.pos++
			return op, nil
		default:
			return op, p.errf("expected ',' or ')' in arguments of %q, found %q", name, p.src[p.pos])
		}
	}
}

func (p *factParser) parseIdent() (string, error) {
	start := p.pos
	for !p.done() {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", p.errf("expected a relation name")
	}
	return p.src[start:p.pos], nil
}

func (p *factParser) parseLiteral() (value.Value, error) {
	if p.done() {
		return value.Value{}, p.errf("expected a literal")
	}
	c := p.src[p.pos]
	switch {
	case c == '\'' || c == '"':
		return p.parseString(c)
	case c == '-' || c == '+' || c >= '0' && c <= '9':
		return p.parseNumber()
	}
	word, err := p.parseIdent()
	if err != nil {
		return value.Value{}, p.errf("expected a literal")
	}
	switch strings.ToLower(word) {
	case "true":
		return value.Bool(true), nil
	case "false":
		return value.Bool(false), nil
	case "null":
		return value.Null(), nil
	}
	return value.Value{}, p.errf("fact arguments must be literals, got %q", word)
}

func (p *factParser) parseString(quote byte) (value.Value, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for !p.done() {
		c := p.src[p.pos]
		if c == quote {
			// Doubled quote is an escaped quote, SQL style.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == quote {
				b.WriteByte(quote)
				p.pos += 2
				continue
			}
			p.pos++
			return value.Str(b.String()), nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return value.Value{}, p.errf("unterminated string literal")
}

func (p *factParser) parseNumber() (value.Value, error) {
	start := p.pos
	if c := p.src[p.pos]; c == '-' || c == '+' {
		p.pos++
	}
	digits := 0
	dot := false
	for !p.done() {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' {
			digits++
			p.pos++
			continue
		}
		if c == '.' && !dot && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9' {
			// A dot is a number part only when followed by a digit —
			// otherwise it terminates the fact op ("+R(1)." style).
			dot = true
			p.pos++
			continue
		}
		break
	}
	if digits == 0 {
		return value.Value{}, p.errf("malformed number")
	}
	text := p.src[start:p.pos]
	if dot {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return value.Value{}, p.errf("malformed number %q", text)
		}
		return value.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return value.Value{}, p.errf("malformed number %q", text)
	}
	return value.Int(i), nil
}
