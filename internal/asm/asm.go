// Package asm implements a two-pass assembler for the SM11 instruction set,
// so that regime programs (and the native baselines used by the benchmark
// harness) can be written as readable source rather than hand-encoded words.
//
// Syntax overview:
//
//	; comment               — to end of line
//	label:                  — define label at current location
//	.org  expr              — set the location counter
//	.equ  name, expr        — define a symbol
//	.word e1, e2, ...       — emit literal words
//	.space n                — emit n zero words
//	.ascii "text"           — emit one word per byte
//	MOV  #5, R0             — immediate source
//	MOV  @0xF040, R1        — absolute address (also a bare symbol: MOV buf, R1)
//	MOV  (R2), 4(R3)        — indirect and indexed
//	BEQ  label              — PC-relative branch
//	TRAP #3                 — kernel service call
//
// Expressions support +, - and the usual numeric literals (decimal, 0x, 0o,
// 0b, 'c'), plus previously defined symbols and labels. The assembler is
// strictly two-pass: pass one sizes every statement and collects symbols,
// pass two encodes.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// Word aliases the machine word type for brevity.
type Word = machine.Word

// Image is an assembled program: a contiguous block of words to be loaded
// at Org, plus the symbol table for use by loaders and tests.
type Image struct {
	Org     Word
	Words   []Word
	Symbols map[string]Word
}

// End returns the first word address past the image.
func (im *Image) End() Word { return im.Org + Word(len(im.Words)) }

// Symbol looks up a symbol, returning ok=false if undefined.
func (im *Image) Symbol(name string) (Word, bool) {
	v, ok := im.Symbols[name]
	return v, ok
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble translates source text into an Image.
func Assemble(src string) (*Image, error) {
	a := &assembler{symbols: map[string]Word{}}
	if err := a.pass(src, 1); err != nil {
		return nil, err
	}
	a.loc = a.org
	a.emitted = a.emitted[:0]
	if err := a.pass(src, 2); err != nil {
		return nil, err
	}
	return &Image{Org: a.org, Words: a.emitted, Symbols: a.symbols}, nil
}

// MustAssemble is Assemble for program literals in tests and examples.
func MustAssemble(src string) *Image {
	im, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return im
}

type assembler struct {
	symbols map[string]Word
	org     Word
	orgSet  bool
	loc     Word
	over    bool // emission ran past the top of the address space
	emitted []Word
	passNum int
	line    int
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) emit(ws ...Word) {
	// Images must fit below the top of the 16-bit address space: a wrapped
	// location counter would corrupt every later symbol and make the
	// image's [Org, End) range meaningless to loaders.
	if int(a.loc)+len(ws) > 0xFFFF {
		a.over = true
	}
	if a.passNum == 2 {
		a.emitted = append(a.emitted, ws...)
	}
	a.loc += Word(len(ws))
}

func (a *assembler) pass(src string, n int) error {
	a.passNum = n
	a.loc = a.org
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.statement(raw); err != nil {
			return err
		}
		if a.over {
			return a.errf("image extends past the top of the address space (location %#x)", a.loc)
		}
	}
	return nil
}

func (a *assembler) statement(raw string) error {
	line := raw
	if i := strings.IndexByte(line, ';'); i >= 0 {
		// Keep quoted semicolons in .ascii lines.
		if q := strings.IndexByte(line, '"'); q < 0 || q > i {
			line = line[:i]
		} else if e := strings.IndexByte(line[q+1:], '"'); e >= 0 {
			if j := strings.IndexByte(line[q+1+e:], ';'); j >= 0 {
				line = line[:q+1+e+j]
			}
		}
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	// Labels (possibly several on one line).
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			break
		}
		name := strings.TrimSpace(line[:i])
		if !isIdent(name) {
			break
		}
		if a.passNum == 1 {
			if _, dup := a.symbols[name]; dup {
				return a.errf("duplicate symbol %q", name)
			}
			a.symbols[name] = a.loc
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}

	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	return a.instruction(line)
}

func (a *assembler) directive(line string) error {
	fields := strings.SplitN(line, " ", 2)
	name := strings.ToLower(strings.TrimSpace(fields[0]))
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch name {
	case ".org":
		v, err := a.expr(rest)
		if err != nil {
			return err
		}
		if !a.orgSet {
			a.org, a.orgSet = v, true
			a.loc = v
			return nil
		}
		if v < a.loc {
			return a.errf(".org %#x moves backwards (location is %#x)", v, a.loc)
		}
		for a.loc < v {
			a.emit(0)
		}
		return nil
	case ".equ":
		parts := splitArgs(rest)
		if len(parts) != 2 {
			return a.errf(".equ needs name, value")
		}
		if a.passNum == 1 {
			v, err := a.expr(parts[1])
			if err != nil {
				return err
			}
			if _, dup := a.symbols[parts[0]]; dup {
				return a.errf("duplicate symbol %q", parts[0])
			}
			a.symbols[parts[0]] = v
		}
		return nil
	case ".word":
		for _, p := range splitArgs(rest) {
			v, err := a.expr(p)
			if err != nil {
				if a.passNum == 1 {
					v = 0 // forward reference; resolved in pass 2
				} else {
					return err
				}
			}
			a.emit(v)
		}
		return nil
	case ".space":
		v, err := a.expr(rest)
		if err != nil {
			return err
		}
		for i := 0; i < int(v); i++ {
			a.emit(0)
		}
		return nil
	case ".ascii", ".asciz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("bad string %s", rest)
		}
		for i := 0; i < len(s); i++ {
			a.emit(Word(s[i]))
		}
		if name == ".asciz" {
			a.emit(0)
		}
		return nil
	}
	return a.errf("unknown directive %s", name)
}

func (a *assembler) instruction(line string) error {
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToUpper(strings.TrimSpace(fields[0]))
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	op, ok := machine.OpByName(mnem)
	if !ok {
		return a.errf("unknown instruction %q", mnem)
	}
	args := splitArgs(rest)

	switch {
	case machine.IsBranch(op):
		if len(args) != 1 {
			return a.errf("%s needs one target", mnem)
		}
		next := a.loc + 1
		target, err := a.expr(args[0])
		if err != nil {
			if a.passNum == 1 {
				a.emit(0)
				return nil
			}
			return err
		}
		off := int(int16(target - next))
		if off < -512 || off > 511 {
			return a.errf("branch to %#x out of range (offset %d)", target, off)
		}
		a.emit(machine.EncBranch(op, off))
		return nil

	case op == machine.OpTRAP:
		if len(args) != 1 || !strings.HasPrefix(args[0], "#") {
			return a.errf("TRAP needs #code")
		}
		v, err := a.expr(args[0][1:])
		if err != nil {
			return err
		}
		if v > 0x3ff {
			return a.errf("TRAP code %d exceeds 10 bits", v)
		}
		a.emit(machine.EncTrap(v))
		return nil
	}

	src, dst, err := a.arity(op, mnem, args)
	if err != nil {
		return err
	}

	words := []Word{0}
	var srcSpec, dstSpec Word
	if src != "" {
		spec, ext, hasExt, err := a.operand(src, true)
		if err != nil {
			return err
		}
		srcSpec = spec
		if hasExt {
			words = append(words, ext)
		}
	}
	if dst != "" {
		spec, ext, hasExt, err := a.operand(dst, false)
		if err != nil {
			return err
		}
		dstSpec = spec
		if hasExt {
			words = append(words, ext)
		}
	}
	words[0] = machine.Enc2(op, srcSpec, dstSpec)
	a.emit(words...)
	return nil
}

// arity validates operand count against the opcode's needs.
func (a *assembler) arity(op Word, mnem string, args []string) (src, dst string, err error) {
	needSrc := machine.HasSrc(op)
	needDst := machine.HasDst(op)
	want := 0
	if needSrc {
		want++
	}
	if needDst {
		want++
	}
	if len(args) != want {
		return "", "", a.errf("%s needs %d operand(s), got %d", mnem, want, len(args))
	}
	switch {
	case needSrc && needDst:
		return args[0], args[1], nil
	case needSrc:
		return args[0], "", nil
	case needDst:
		return "", args[0], nil
	}
	return "", "", nil
}

// operand parses one operand and returns its 5-bit spec plus any extension
// word. Forward references are tolerated on pass 1 (size is still exact
// because every non-register form is classified syntactically).
func (a *assembler) operand(s string, isSrc bool) (spec, ext Word, hasExt bool, err error) {
	s = strings.TrimSpace(s)
	eval := func(e string) (Word, error) {
		v, err := a.expr(e)
		if err != nil && a.passNum == 1 {
			return 0, nil // forward reference
		}
		return v, err
	}
	switch {
	case isRegName(s):
		return machine.Spec(machine.ModeReg, regNum(s)), 0, false, nil

	case strings.HasPrefix(s, "#"):
		if !isSrc {
			return 0, 0, false, a.errf("immediate %q not allowed as destination", s)
		}
		v, err := eval(s[1:])
		if err != nil {
			return 0, 0, false, err
		}
		return machine.Spec(machine.ModeExtended, machine.RegPC), v, true, nil

	case strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")"):
		r := strings.TrimSpace(s[1 : len(s)-1])
		if !isRegName(r) {
			return 0, 0, false, a.errf("bad indirect operand %q", s)
		}
		return machine.Spec(machine.ModeIndirect, regNum(r)), 0, false, nil

	case strings.HasSuffix(s, ")"):
		i := strings.LastIndexByte(s, '(')
		if i < 0 {
			return 0, 0, false, a.errf("bad operand %q", s)
		}
		r := strings.TrimSpace(s[i+1 : len(s)-1])
		if !isRegName(r) {
			return 0, 0, false, a.errf("bad index register in %q", s)
		}
		v, err := eval(s[:i])
		if err != nil {
			return 0, 0, false, err
		}
		return machine.Spec(machine.ModeIndexed, regNum(r)), v, true, nil

	case strings.HasPrefix(s, "@"):
		v, err := eval(s[1:])
		if err != nil {
			return 0, 0, false, err
		}
		return machine.Spec(machine.ModeExtended, machine.RegSP), v, true, nil

	default:
		// A bare expression is absolute addressing: MOV buf, R0.
		v, err := eval(s)
		if err != nil {
			return 0, 0, false, err
		}
		return machine.Spec(machine.ModeExtended, machine.RegSP), v, true, nil
	}
}

// --- expressions ---

func (a *assembler) expr(s string) (Word, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf("empty expression")
	}
	var total int64
	sign := int64(1)
	tok := ""
	flush := func() error {
		if tok == "" {
			return nil
		}
		v, err := a.term(tok)
		if err != nil {
			return err
		}
		total += sign * int64(v)
		tok = ""
		return nil
	}
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == '\'': // char literal
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				return 0, a.errf("unterminated char literal in %q", s)
			}
			tok += s[i : i+j+2]
			i += j + 2
		case c == '+' || c == '-':
			if tok == "" && c == '-' && sign == 1 {
				sign = -1
				i++
				continue
			}
			if err := flush(); err != nil {
				return 0, err
			}
			if c == '+' {
				sign = 1
			} else {
				sign = -1
			}
			i++
		case c == ' ' || c == '\t':
			i++
		default:
			tok += string(c)
			i++
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return Word(total), nil
}

func (a *assembler) term(t string) (Word, error) {
	t = strings.TrimSpace(t)
	if t == "" {
		return 0, a.errf("empty term")
	}
	if t[0] == '\'' && len(t) >= 3 && t[len(t)-1] == '\'' {
		return Word(t[1]), nil
	}
	if t == "." {
		return a.loc, nil
	}
	if v, err := strconv.ParseInt(t, 0, 32); err == nil {
		return Word(v), nil
	}
	if v, ok := a.symbols[t]; ok {
		return v, nil
	}
	return 0, a.errf("undefined symbol %q", t)
}

// --- lexical helpers ---

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func isRegName(s string) bool {
	switch strings.ToUpper(s) {
	case "R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "SP", "PC":
		return true
	}
	return false
}

func regNum(s string) int {
	switch strings.ToUpper(s) {
	case "SP":
		return machine.RegSP
	case "PC":
		return machine.RegPC
	}
	return int(s[1] - '0')
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}
