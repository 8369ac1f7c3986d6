package staticflow

import (
	"sort"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Value-set analysis: a small constant-propagation domain over the general
// registers, existing for exactly one purpose — resolving indirect JMP/JSR
// sites (`JMP (Rn)`, `JMP tab(Rn)`, dispatch through a constant table) into
// real CFG edges instead of "unresolved indirect" notes. The domain is
// deliberately tiny:
//
//   - each of R0..R5 carries either ⊤ (unknown) or a set of at most vsaCap
//     concrete words;
//   - MOV/ADD/SUB/SHL propagate sets (pairwise for register-register
//     arithmetic, capped); every other register write is ⊤;
//   - memory loads contribute sets only when the image is provably ROM —
//     no instruction anywhere in the program can write inside the image
//     (any indirect/indexed store, PUSH or JSR disqualifies it, since the
//     analyzer tracks no pointer or SP values);
//   - programs that install interrupt handlers get no resolutions at all:
//     a handler can rewrite registers between any two instructions.
//
// Everything that falls outside these cases keeps the sound fallback: the
// site stays unresolved, noted once, and the flow analysis treats it as
// reaching any region. The machine semantics mirrored here are exact:
// JMP/JSR compute PC from the *effective address* of the destination
// operand (mode reg → Rn, indirect → Rn, indexed → Rn+disp, absolute →
// ext), with no memory read — table dispatch therefore reads its table
// through an ordinary MOV, which is where the ROM rule applies.

// vsaCap bounds a tracked value set; one past it, the register is ⊤.
const vsaCap = 8

// vset is a register's value set: top means unknown; otherwise vals is
// sorted and duplicate-free with 0 < len ≤ vsaCap.
type vset struct {
	top  bool
	vals []Word
}

func vsTop() vset             { return vset{top: true} }
func vsConst(w Word) vset     { return vset{vals: []Word{w}} }
func (v vset) known() bool    { return !v.top && len(v.vals) > 0 }
func (v vset) isBottom() bool { return !v.top && len(v.vals) == 0 }

// norm sorts, dedups and caps a value list into a vset.
func vsOf(vals []Word) vset {
	if len(vals) == 0 {
		return vset{}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := vals[:1]
	for _, w := range vals[1:] {
		if w != out[len(out)-1] {
			out = append(out, w)
		}
	}
	if len(out) > vsaCap {
		return vsTop()
	}
	return vset{vals: out}
}

// join is set union with the cap; ⊤ absorbs.
func (v vset) join(o vset) vset {
	if v.top || o.top {
		return vsTop()
	}
	return vsOf(append(append([]Word{}, v.vals...), o.vals...))
}

func (v vset) equal(o vset) bool {
	if v.top != o.top || len(v.vals) != len(o.vals) {
		return false
	}
	for i := range v.vals {
		if v.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}

// submasks enumerates every submask of every mask in ms (⊤ past the cap):
// the value set of (unknown AND mask).
func submasks(ms vset) vset {
	var out []Word
	for _, m := range ms.vals {
		// Standard submask walk; the count is 2^popcount(m).
		for sub := m; ; sub = (sub - 1) & m {
			out = append(out, sub)
			if len(out) > vsaCap {
				return vsTop()
			}
			if sub == 0 {
				break
			}
		}
	}
	return vsOf(out)
}

// map2 applies f pairwise over two sets; any ⊤ (or blown cap) is ⊤.
func map2(a, b vset, f func(x, y Word) Word) vset {
	if a.top || b.top {
		return vsTop()
	}
	if len(a.vals)*len(b.vals) > vsaCap {
		return vsTop()
	}
	var out []Word
	for _, x := range a.vals {
		for _, y := range b.vals {
			out = append(out, f(x, y))
		}
	}
	return vsOf(out)
}

// vsaState is the per-program-point abstraction: one set per R0..R5.
type vsaState [6]vset

func vsaTopState() vsaState {
	var s vsaState
	for i := range s {
		s[i] = vsTop()
	}
	return s
}

func (s vsaState) join(o vsaState) vsaState {
	var out vsaState
	for i := range out {
		out[i] = s[i].join(o[i])
	}
	return out
}

func (s vsaState) equal(o vsaState) bool {
	for i := range s {
		if !s[i].equal(o[i]) {
			return false
		}
	}
	return true
}

// vsa is one value-set pass over a built CFG.
type vsa struct {
	img *asm.Image
	g   *CFG
	rom bool // no instruction can store into the image
}

// imageROM reports whether the image is provably immutable during
// execution: no decoded instruction can write a word inside [org, end).
// Stores through run-time addresses (indirect/indexed destinations), stack
// writes (PUSH, JSR) and absolute stores landing inside the image all
// disqualify it.
func imageROM(g *CFG, img *asm.Image) bool {
	for _, b := range g.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case machine.OpPUSH, machine.OpJSR:
				return false
			case machine.OpMOV, machine.OpADD, machine.OpSUB, machine.OpAND,
				machine.OpOR, machine.OpXOR, machine.OpSHL, machine.OpSHR,
				machine.OpMUL, machine.OpNOT, machine.OpNEG, machine.OpPOP,
				machine.OpMFPS:
				spec := machine.DstSpec(in.Words[0])
				switch machine.SpecMode(spec) {
				case machine.ModeIndirect, machine.ModeIndexed:
					return false
				case machine.ModeExtended:
					if machine.SpecReg(spec) == machine.RegSP {
						ext := in.Words[len(in.Words)-1]
						if ext >= img.Org && ext < img.End() {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// imageWord reads a word from the image, reporting whether a is inside it.
func (v *vsa) imageWord(a Word) (Word, bool) {
	if a >= v.img.Org && a < v.img.End() {
		return v.img.Words[a-v.img.Org], true
	}
	return 0, false
}

// load models a memory read at each address in as: defined only under the
// ROM rule with every address inside the image.
func (v *vsa) load(as vset) vset {
	if !v.rom || !as.known() {
		return vsTop()
	}
	var out []Word
	for _, a := range as.vals {
		w, ok := v.imageWord(a)
		if !ok {
			return vsTop()
		}
		out = append(out, w)
	}
	return vsOf(out)
}

// readSrc evaluates a source operand as a value set.
func (v *vsa) readSrc(s *vsaState, spec, ext Word) vset {
	mode, reg := machine.SpecMode(spec), machine.SpecReg(spec)
	switch mode {
	case machine.ModeReg:
		if reg <= 5 {
			return s[reg]
		}
		return vsTop() // SP, PC
	case machine.ModeIndirect:
		if reg <= 5 {
			return v.load(s[reg])
		}
		return vsTop()
	case machine.ModeIndexed:
		if reg <= 5 {
			return v.load(map2(s[reg], vsConst(ext), func(x, y Word) Word { return x + y }))
		}
		return vsTop()
	default: // ModeExtended
		if reg == machine.RegPC {
			return vsConst(ext) // immediate
		}
		return v.load(vsConst(ext)) // absolute
	}
}

// step applies one instruction's value transfer to s in place.
func (v *vsa) step(in *Instr, s *vsaState) {
	op := in.Op
	srcSpec, srcExt, dstSpec, _ := in.Operands()

	// dstReg returns the tracked register the destination names, or -1.
	dstReg := func() int {
		if machine.SpecMode(dstSpec) == machine.ModeReg {
			if r := machine.SpecReg(dstSpec); r <= 5 {
				return r
			}
		}
		return -1
	}

	switch op {
	case machine.OpMOV:
		if d := dstReg(); d >= 0 {
			s[d] = v.readSrc(s, srcSpec, srcExt)
		}
	case machine.OpADD:
		if d := dstReg(); d >= 0 {
			s[d] = map2(s[d], v.readSrc(s, srcSpec, srcExt),
				func(x, y Word) Word { return x + y })
		}
	case machine.OpSUB:
		if d := dstReg(); d >= 0 {
			s[d] = map2(s[d], v.readSrc(s, srcSpec, srcExt),
				func(x, y Word) Word { return x - y })
		}
	case machine.OpSHL:
		if d := dstReg(); d >= 0 {
			s[d] = map2(s[d], v.readSrc(s, srcSpec, srcExt),
				func(x, y Word) Word { return x << (y & 15) })
		}
	case machine.OpAND:
		if d := dstReg(); d >= 0 {
			src := v.readSrc(s, srcSpec, srcExt)
			if s[d].top && src.known() {
				// Masking an unknown value bounds it: the result is some
				// submask of the mask. This is how a runtime selector
				// (AND #1, Rn) becomes a resolvable table index.
				s[d] = submasks(src)
			} else {
				s[d] = map2(s[d], src, func(x, y Word) Word { return x & y })
			}
		}

	case machine.OpOR, machine.OpXOR, machine.OpSHR,
		machine.OpMUL, machine.OpNOT, machine.OpNEG, machine.OpPOP,
		machine.OpMFPS:
		if d := dstReg(); d >= 0 {
			s[d] = vsTop()
		}
	case machine.OpTRAP:
		// Kernel services write registers per their exported footprints;
		// an unknown code writes the error status into R0.
		if fp, ok := kernel.FootprintFor(machine.TrapCodeOf(in.Words[0])); ok {
			for _, rw := range fp.WriteRegs {
				if rw.Reg <= 5 {
					s[rw.Reg] = vsTop()
				}
			}
		} else {
			s[0] = vsTop()
		}
	}
}

// siteTargets computes the jump-target set of an indirect JMP/JSR given the
// value state before it, mirroring the machine's effective-address rule.
func siteTargets(in *Instr, s *vsaState) vset {
	spec := machine.DstSpec(in.Words[0])
	mode, reg := machine.SpecMode(spec), machine.SpecReg(spec)
	switch mode {
	case machine.ModeReg, machine.ModeIndirect: // PC := Rn
		if reg <= 5 {
			return s[reg]
		}
	case machine.ModeIndexed: // PC := Rn + disp
		if reg <= 5 && len(in.Words) >= 2 {
			return map2(s[reg], vsConst(in.Words[len(in.Words)-1]),
				func(x, y Word) Word { return x + y })
		}
	}
	return vsTop()
}

// vsaResolve runs the value-set fixpoint over g and returns, for every
// indirect JMP/JSR site whose target set is finite and entirely inside the
// image, the sorted target list.
//
// Resolution is all-or-nothing: a resolved edge claims that execution can
// only reach those targets, which is defensible only when every executed
// instruction is one the decoder saw and modelled. So nothing resolves
// unless the whole graph is closed —
//
//   - the image is ROM (no store anywhere can rewrite code or tables);
//   - no RTS or RTI (either can transfer to a stack value the analysis
//     does not track);
//   - no interrupt handlers (delivery rewrites registers asynchronously);
//   - every reachable indirect site resolves (one escape hatch would let
//     execution run undecoded code that clobbers registers and returns).
//
// An open graph keeps the existing sound treatment: unresolved notes and
// top-colour at the flow level.
func vsaResolve(img *asm.Image, g *CFG) map[Word][]Word {
	if len(g.IRQRoots) > 0 || len(g.Blocks) == 0 || g.Entry < 0 {
		return nil
	}
	if !imageROM(g, img) {
		return nil
	}
	for _, b := range g.Blocks {
		for i := range b.Instrs {
			if op := b.Instrs[i].Op; op == machine.OpRTS || op == machine.OpRTI {
				return nil
			}
		}
	}
	v := &vsa{img: img, g: g, rom: true}

	n := len(g.Blocks)
	ins := make([]vsaState, n)
	reached := make([]bool, n)
	ins[g.Entry] = vsaTopState()
	reached[g.Entry] = true

	inWork := make([]bool, n)
	work := []int{g.Entry}
	push := func(i int) {
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	steps := 0
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		st := ins[bi]
		for i := range g.Blocks[bi].Instrs {
			v.step(&g.Blocks[bi].Instrs[i], &st)
		}
		for _, e := range g.Blocks[bi].Succs {
			if !reached[e.To] {
				reached[e.To] = true
				ins[e.To] = st
				push(e.To)
			} else if j := ins[e.To].join(st); !j.equal(ins[e.To]) {
				ins[e.To] = j
				push(e.To)
			}
		}
		// The domain is finite (each register rises to ⊤ through capped
		// sets) so this converges; the bound is a fuzz belt.
		steps++
		if steps > 64*n+4096 {
			return nil
		}
	}

	out := map[Word][]Word{}
	for bi, b := range g.Blocks {
		if !reached[bi] {
			continue
		}
		st := ins[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == machine.OpJMP || in.Op == machine.OpJSR {
				spec := machine.DstSpec(in.Words[0])
				already := machine.SpecMode(spec) == machine.ModeExtended &&
					machine.SpecReg(spec) == machine.RegSP
				if !already {
					ts := siteTargets(in, &st)
					if !ts.known() {
						return nil // one open site poisons the closure
					}
					for _, t := range ts.vals {
						if _, inImg := v.imageWord(t); !inImg {
							return nil
						}
					}
					out[in.Addr] = append([]Word{}, ts.vals...)
				}
			}
			v.step(in, &st)
		}
	}
	return out
}
