package ifa

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual form of an IFA program:
//
//	program spooler
//	var high_spool, cursor : HIGH
//	var low_spool : LOW
//	cursor := high_spool + low_spool
//	if cursor {
//	    low_spool := 0
//	}
//	while cursor {
//	    cursor := cursor - 1
//	}
//
// Classes are free-form tokens (they must make sense to the lattice the
// caller certifies against). Expressions support identifiers, integer
// literals, binary operators (+ - * / &) with no precedence (left
// associative), and parentheses.
func Parse(src string) (*Program, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	return p.parse()
}

type parser struct {
	lines []string
	pos   int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ifa: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

// next returns the next significant line without consuming it; ok=false at
// end of input.
func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			p.pos++
			continue
		}
		return line, true
	}
	return "", false
}

func (p *parser) consume() { p.pos++ }

func (p *parser) parse() (*Program, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "program ") {
		return nil, p.errf("expected 'program <name>'")
	}
	prog := NewProgram(strings.TrimSpace(strings.TrimPrefix(line, "program ")))
	p.consume()

	// Declarations.
	for {
		line, ok = p.next()
		if !ok {
			return prog, nil
		}
		if !strings.HasPrefix(line, "var ") {
			break
		}
		rest := strings.TrimPrefix(line, "var ")
		parts := strings.SplitN(rest, ":", 2)
		if len(parts) != 2 {
			return nil, p.errf("expected 'var name[, name...] : CLASS'")
		}
		class := Class(strings.TrimSpace(parts[1]))
		for _, name := range strings.Split(parts[0], ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				return nil, p.errf("empty variable name")
			}
			prog.Declare(class, name)
		}
		p.consume()
	}

	body, err := p.block("")
	if err != nil {
		return nil, err
	}
	prog.Add(body...)
	return prog, nil
}

// block parses statements until end-of-input or a line equal to terminator.
func (p *parser) block(terminator string) ([]Stmt, error) {
	var out []Stmt
	for {
		line, ok := p.next()
		if !ok {
			if terminator != "" {
				return nil, p.errf("missing %q", terminator)
			}
			return out, nil
		}
		if terminator != "" && line == terminator {
			p.consume()
			return out, nil
		}
		st, err := p.statement(line)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

func (p *parser) statement(line string) (Stmt, error) {
	switch {
	case strings.HasPrefix(line, "if ") && strings.HasSuffix(line, "{"):
		cond, err := parseExpr(strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "if "), "{")))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.consume()
		thenB, err := p.block("}")
		if err != nil {
			return nil, err
		}
		// Optional else block.
		var elseB []Stmt
		if nxt, ok := p.next(); ok && (nxt == "else {" || nxt == "} else {") {
			p.consume()
			elseB, err = p.block("}")
			if err != nil {
				return nil, err
			}
		}
		return If{Cond: cond, Then: thenB, Else: elseB}, nil

	case strings.HasPrefix(line, "while ") && strings.HasSuffix(line, "{"):
		cond, err := parseExpr(strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "while "), "{")))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.consume()
		body, err := p.block("}")
		if err != nil {
			return nil, err
		}
		return While{Cond: cond, Body: body}, nil

	case strings.Contains(line, ":="):
		parts := strings.SplitN(line, ":=", 2)
		dst := strings.TrimSpace(parts[0])
		if !isIdent(dst) {
			return nil, p.errf("bad assignment target %q", dst)
		}
		src, err := parseExpr(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.consume()
		return Assign{Dst: dst, Src: src}, nil
	}
	return nil, p.errf("cannot parse statement %q", line)
}

// --- expression parsing (flat left-associative binary chain) ---

type tokenizer struct {
	s   string
	pos int
}

func (t *tokenizer) token() (string, error) {
	for t.pos < len(t.s) && t.s[t.pos] == ' ' {
		t.pos++
	}
	if t.pos >= len(t.s) {
		return "", nil
	}
	c := t.s[t.pos]
	switch {
	case strings.ContainsRune("+-*/&()", rune(c)):
		t.pos++
		return string(c), nil
	case c >= '0' && c <= '9':
		start := t.pos
		for t.pos < len(t.s) && t.s[t.pos] >= '0' && t.s[t.pos] <= '9' {
			t.pos++
		}
		return t.s[start:t.pos], nil
	case isIdentByte(c):
		start := t.pos
		for t.pos < len(t.s) && isIdentByte(t.s[t.pos]) {
			t.pos++
		}
		return t.s[start:t.pos], nil
	}
	return "", fmt.Errorf("bad character %q in expression", c)
}

func parseExpr(s string) (Expr, error) {
	t := &tokenizer{s: s}
	e, err := parseChain(t)
	if err != nil {
		return nil, err
	}
	if rest, _ := t.token(); rest != "" {
		return nil, fmt.Errorf("trailing %q in expression %q", rest, s)
	}
	return e, nil
}

func parseChain(t *tokenizer) (Expr, error) {
	left, err := parseAtom(t)
	if err != nil {
		return nil, err
	}
	for {
		save := t.pos
		op, err := t.token()
		if err != nil {
			return nil, err
		}
		if op == "" || op == ")" {
			t.pos = save
			return left, nil
		}
		if !strings.Contains("+-*/&", op) {
			return nil, fmt.Errorf("expected operator, got %q", op)
		}
		right, err := parseAtom(t)
		if err != nil {
			return nil, err
		}
		left = BinOp{Op: op, L: left, R: right}
	}
}

func parseAtom(t *tokenizer) (Expr, error) {
	tok, err := t.token()
	if err != nil {
		return nil, err
	}
	switch {
	case tok == "":
		return nil, fmt.Errorf("unexpected end of expression")
	case tok == "(":
		e, err := parseChain(t)
		if err != nil {
			return nil, err
		}
		if close, _ := t.token(); close != ")" {
			return nil, fmt.Errorf("missing )")
		}
		return e, nil
	case tok[0] >= '0' && tok[0] <= '9':
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, err
		}
		return Const{Value: v}, nil
	case isIdent(tok):
		return VarRef{Name: tok}, nil
	}
	return nil, fmt.Errorf("bad token %q", tok)
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isIdent(s string) bool {
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isIdentByte(s[i]) {
			return false
		}
	}
	return true
}
