package staticflow

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// EdgeKind classifies a CFG edge.
type EdgeKind int

// Edge kinds.
const (
	EdgeFall   EdgeKind = iota // fall-through to the next instruction
	EdgeBranch                 // taken conditional/unconditional branch
	EdgeJump                   // JMP to a resolved absolute target
	EdgeCall                   // JSR to a resolved absolute target
	EdgeReturn                 // RTS back to a recorded JSR return site
	EdgeTrap                   // resumption after a kernel service (TRAP)
	EdgeIRQ                    // asynchronous entry into an interrupt handler
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeBranch:
		return "branch"
	case EdgeJump:
		return "jump"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	case EdgeTrap:
		return "trap"
	case EdgeIRQ:
		return "irq"
	}
	return "?"
}

// Edge is one successor link between blocks.
type Edge struct {
	To   int
	Kind EdgeKind
}

// Instr is one decoded instruction.
type Instr struct {
	Addr  Word   // virtual address of the first word
	Words []Word // raw words (1..3)
	Op    Word
	Text  string // disassembly
}

// Len returns the instruction length in words.
func (i *Instr) Len() Word { return Word(len(i.Words)) }

// Operands decodes the source and destination operand specs and their
// extension words, source first. An operand the opcode does not use, or
// whose mode takes no extension word, has extension 0.
func (i *Instr) Operands() (srcSpec, srcExt, dstSpec, dstExt Word) {
	srcSpec, dstSpec = machine.SrcSpec(i.Words[0]), machine.DstSpec(i.Words[0])
	next := 1
	ext := func(spec Word) Word {
		m := machine.SpecMode(spec)
		if (m != machine.ModeIndexed && m != machine.ModeExtended) || next >= len(i.Words) {
			return 0
		}
		next++
		return i.Words[next-1]
	}
	if machine.HasSrc(i.Op) {
		srcExt = ext(srcSpec)
	}
	if machine.HasDst(i.Op) {
		dstExt = ext(dstSpec)
	}
	return
}

// Block is a maximal straight-line instruction run.
type Block struct {
	ID     int
	Addr   Word
	Instrs []Instr
	Succs  []Edge
	// CondBranch marks a block ending in a conditional branch: its exit
	// condition-code colour becomes the implicit-flow colour of every block
	// control-dependent on it.
	CondBranch bool
}

// CFG is the control-flow graph of one assembled image.
type CFG struct {
	Blocks   []*Block
	Entry    int   // block index of the program entry
	IRQRoots []int // block indices of discovered interrupt handlers
	// Notes record decoding caveats: unresolved indirect jumps, branches
	// out of the image, undecodable bytes. Identical notes are recorded
	// once, however many decode walks revisit the site.
	Notes []string
	// Resolved maps the address of each indirect JMP/JSR that value-set
	// analysis resolved to its sorted list of proven targets.
	Resolved map[Word][]Word
}

// NumInstrs counts decoded instructions across all blocks.
func (g *CFG) NumInstrs() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// blockAt maps a leader address to its block index (-1 when absent).
func (g *CFG) blockAt(addr Word, byAddr map[Word]int) int {
	if i, ok := byAddr[addr]; ok {
		return i
	}
	return -1
}

// BuildCFG decodes the image into a control-flow graph, starting from the
// `start` symbol (or the image origin) and from every interrupt handler the
// program installs into the regime vector table. Decoding is reachability
// based, so .word data that is never executed is never misparsed.
//
// Indirect JMP/JSR sites are fed to value-set analysis (vsa.go): when a
// site's target set is proven finite the graph is rebuilt with those edges
// in place, iterating until the resolution map is stable (new edges can
// reveal new code, which can invalidate the ROM assumption resolutions
// depend on). Sites that never resolve keep the sound top-colour treatment
// in the flow analysis, with one note each.
func BuildCFG(img *asm.Image) (*CFG, error) {
	return buildCFG(img, true)
}

// vsaRounds caps the build→resolve→rebuild iterations. On the last round
// the resolution map is verified once more; if it is still unstable the
// builder falls back to the fully unresolved graph, which is always sound.
const vsaRounds = 4

func buildCFG(img *asm.Image, useVSA bool) (*CFG, error) {
	resolved := map[Word][]Word{}
	for round := 0; ; round++ {
		g, err := buildOnce(img, resolved)
		if err != nil || !useVSA {
			return g, err
		}
		next := vsaResolve(img, g)
		if resolutionsEqual(resolved, next) {
			g.Resolved = resolved
			return g, nil
		}
		if round >= vsaRounds-1 {
			// No fixpoint within budget: drop every resolution.
			g, err = buildOnce(img, map[Word][]Word{})
			return g, err
		}
		resolved = next
	}
}

func resolutionsEqual(a, b map[Word][]Word) bool {
	if len(a) != len(b) {
		return false
	}
	for site, ta := range a {
		tb, ok := b[site]
		if !ok || len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
		}
	}
	return true
}

func buildOnce(img *asm.Image, resolved map[Word][]Word) (*CFG, error) {
	if img == nil || len(img.Words) == 0 {
		return nil, fmt.Errorf("staticflow: empty image")
	}
	entry := img.Org
	if s, ok := img.Symbol("start"); ok {
		entry = s
	}
	b := &cfgBuilder{
		img:      img,
		instrs:   map[Word]*Instr{},
		succs:    map[Word][]succ{},
		leaders:  map[Word]bool{},
		resolved: resolved,
		noted:    map[string]bool{},
	}
	b.addRoot(entry)
	for len(b.work) > 0 {
		a := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.decodeFrom(a)
	}
	// Context-insensitive returns: every RTS may resume at any recorded
	// JSR return site.
	for addr, in := range b.instrs {
		if in.Op == machine.OpRTS {
			for _, r := range b.returnSites {
				b.addSucc(addr, r, EdgeReturn)
			}
		}
	}
	g := b.build(entry)
	if g.Entry < 0 {
		return nil, fmt.Errorf("staticflow: entry %#x not decodable", entry)
	}
	return g, nil
}

type succ struct {
	to   Word
	kind EdgeKind
}

type cfgBuilder struct {
	img         *asm.Image
	instrs      map[Word]*Instr
	succs       map[Word][]succ
	leaders     map[Word]bool
	work        []Word
	irqRoots    []Word
	returnSites []Word
	notes       []string
	noted       map[string]bool
	resolved    map[Word][]Word // indirect JMP/JSR sites proven by VSA
}

// note records one decoding caveat. Decode walks from different roots can
// revisit the same site, so identical messages are kept once.
func (b *cfgBuilder) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if b.noted[msg] {
		return
	}
	b.noted[msg] = true
	b.notes = append(b.notes, msg)
}

func (b *cfgBuilder) inImage(a Word) bool {
	return a >= b.img.Org && a < b.img.End()
}

func (b *cfgBuilder) addRoot(a Word) {
	if !b.leaders[a] {
		b.leaders[a] = true
		b.work = append(b.work, a)
	}
}

func (b *cfgBuilder) addSucc(from, to Word, kind EdgeKind) {
	if !b.inImage(to) {
		b.note("%s target %04x outside image at %04x", kind, to, from)
		return
	}
	for _, s := range b.succs[from] {
		if s.to == to && s.kind == kind {
			return
		}
	}
	b.succs[from] = append(b.succs[from], succ{to: to, kind: kind})
	b.addRoot(to)
}

// decode decodes the instruction at a, returning nil when the address or
// the instruction's extension words fall outside the image.
func (b *cfgBuilder) decode(a Word) *Instr {
	if in, ok := b.instrs[a]; ok {
		return in
	}
	if !b.inImage(a) {
		return nil
	}
	w := b.img.Words[a-b.img.Org]
	op := machine.DecodeOp(w)
	if op >= machine.OpMUL+1 { // beyond the defined opcode range
		b.note("undecodable word %04x at %04x", w, a)
		return nil
	}
	n := Word(machine.InstrLen(w))
	if a+n > b.img.End() || a+n < a {
		b.note("truncated instruction at %04x", a)
		return nil
	}
	words := append([]Word(nil), b.img.Words[a-b.img.Org:a-b.img.Org+n]...)
	text, _ := machine.Disasm(words)
	in := &Instr{Addr: a, Words: words, Op: op, Text: text}
	b.instrs[a] = in
	return in
}

// decodeFrom walks a straight-line run from a, recording successors and
// queueing discovered control-transfer targets.
func (b *cfgBuilder) decodeFrom(a Word) {
	for {
		in := b.decode(a)
		if in == nil {
			return
		}
		next := a + in.Len()
		op := in.Op
		switch {
		case machine.IsBranch(op):
			target := next + Word(machine.BranchOffset(in.Words[0]))
			b.addSucc(a, target, EdgeBranch)
			if op != machine.OpBR {
				b.addSucc(a, next, EdgeFall)
			}
			return
		case op == machine.OpJMP || op == machine.OpJSR:
			kind := EdgeJump
			if op == machine.OpJSR {
				kind = EdgeCall
			}
			spec := machine.DstSpec(in.Words[0])
			switch {
			case machine.SpecMode(spec) == machine.ModeExtended &&
				machine.SpecReg(spec) == machine.RegSP:
				b.addSucc(a, in.Words[len(in.Words)-1], kind)
			case len(b.resolved[a]) > 0:
				for _, t := range b.resolved[a] {
					b.addSucc(a, t, kind)
				}
				b.note("indirect %s at %04x resolved by value-set analysis (%d targets): %s",
					machine.OpName(op), a, len(b.resolved[a]), in.Text)
			default:
				b.note("unresolved indirect %s at %04x: %s",
					machine.OpName(op), a, in.Text)
			}
			if op == machine.OpJSR {
				b.returnSites = append(b.returnSites, next)
				b.leaders[next] = true
			}
			return
		case op == machine.OpTRAP:
			if machine.TrapCodeOf(in.Words[0]) == kernel.TrapHalt {
				return // HALTME: the regime is dead
			}
			b.addSucc(a, next, EdgeTrap)
			return
		case op == machine.OpRTS, op == machine.OpRTI, op == machine.OpHALT:
			return // return edges for RTS are filled in afterwards
		case op == machine.OpMOV:
			// Vector-table installs reveal interrupt handlers:
			// MOV #handler, @RegimeVecBase+2j.
			b.scanVectorInstall(in)
		}
		// Plain fall-through; keep walking the run.
		if _, seen := b.instrs[next]; seen && !b.leaders[next] {
			// Converging with a run decoded from another root: make the
			// join point a leader so block construction links both paths.
			b.leaders[next] = true
			return
		}
		a = next
	}
}

// scanVectorInstall detects MOV #imm, @vec with vec inside the regime
// vector table and registers imm as an interrupt-handler root.
func (b *cfgBuilder) scanVectorInstall(in *Instr) {
	w := in.Words[0]
	src, dst := machine.SrcSpec(w), machine.DstSpec(w)
	if machine.SpecMode(src) != machine.ModeExtended ||
		machine.SpecReg(src) != machine.RegPC {
		return // source is not an immediate
	}
	if machine.SpecMode(dst) != machine.ModeExtended ||
		machine.SpecReg(dst) != machine.RegSP {
		return // destination is not an absolute address
	}
	if len(in.Words) < 3 {
		return
	}
	handler, vec := in.Words[1], in.Words[2]
	if vec < kernel.RegimeVecBase || vec >= kernel.RegimeVecBase+8 {
		return
	}
	if !b.inImage(handler) {
		b.note("interrupt handler %04x outside image (installed at %04x)",
			handler, in.Addr)
		return
	}
	for _, r := range b.irqRoots {
		if r == handler {
			return
		}
	}
	b.irqRoots = append(b.irqRoots, handler)
	b.addRoot(handler)
}

// build partitions decoded instructions into basic blocks and links them.
func (b *cfgBuilder) build(entry Word) *CFG {
	// Every control-transfer target and root is a leader; so is any
	// instruction following one that has explicit successors or ends a run.
	addrs := make([]Word, 0, len(b.instrs))
	for a := range b.instrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	ends := map[Word]bool{} // instructions that terminate their block
	for a, in := range b.instrs {
		op := in.Op
		if machine.IsBranch(op) || op == machine.OpJMP || op == machine.OpJSR ||
			op == machine.OpRTS || op == machine.OpRTI || op == machine.OpHALT ||
			op == machine.OpTRAP {
			ends[a] = true
			b.leaders[a+in.Len()] = true
		}
	}

	g := &CFG{Entry: -1}
	byAddr := map[Word]int{}
	var cur *Block
	for _, a := range addrs {
		in := b.instrs[a]
		if cur == nil || b.leaders[a] || cur.Instrs[len(cur.Instrs)-1].Addr+
			cur.Instrs[len(cur.Instrs)-1].Len() != a {
			cur = &Block{ID: len(g.Blocks), Addr: a}
			g.Blocks = append(g.Blocks, cur)
			byAddr[a] = cur.ID
		}
		cur.Instrs = append(cur.Instrs, *in)
		if ends[a] {
			cur = nil
		}
	}

	// Successor edges: explicit successors of each block's last
	// instruction, plus the implicit fall-through into the next leader.
	for _, blk := range g.Blocks {
		last := blk.Instrs[len(blk.Instrs)-1]
		ss := b.succs[last.Addr]
		if len(ss) == 0 && !ends[last.Addr] {
			// The run was split by a leader: implicit fall-through.
			if to, ok := byAddr[last.Addr+last.Len()]; ok {
				blk.Succs = append(blk.Succs, Edge{To: to, Kind: EdgeFall})
			}
			continue
		}
		for _, s := range ss {
			if to, ok := byAddr[s.to]; ok {
				blk.Succs = append(blk.Succs, Edge{To: to, Kind: s.kind})
			}
		}
		op := last.Op
		blk.CondBranch = machine.IsBranch(op) && op != machine.OpBR
	}

	if i, ok := byAddr[entry]; ok {
		g.Entry = i
	}
	for _, r := range b.irqRoots {
		if i, ok := byAddr[r]; ok {
			g.IRQRoots = append(g.IRQRoots, i)
		}
	}
	sort.Ints(g.IRQRoots)
	g.Notes = b.notes
	return g
}
