package staticflow

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/ifa"
	"repro/internal/machine"
)

// A loc is one colour-carrying location: the six general registers, the
// user SP, the condition codes, a single summary location for the stack
// (the analyzer tracks no values, so stack slots cannot be distinguished),
// and one location per absolutely-addressed memory cell.
type loc int32

const (
	locR0    loc = 0 // R0..R5 at locR0..locR0+5
	locSP    loc = 6
	locFlags loc = 7
	locStack loc = 8
	locNone  loc = -1 // constants and kernel-produced values
	memBase  loc = 16
)

func memLoc(a Word) loc { return memBase + loc(a) }

// witness records which instruction established a location's current
// colour, and from where — the raw material of provenance chains.
type witness struct {
	addr     Word
	text     string
	from     loc
	fromDesc string
}

// state maps locations to colours, storing only entries that differ from
// the spec-declared default. Witnesses ride along and never influence the
// fixpoint (colour maps and stack cells alone decide convergence). The
// stack fields are the frame-offset cell overlay (stack.go): stk holds the
// tracked cells bottom-to-top, stkLost marks a sound collapse onto the
// locStack summary, and stkVirgin marks a state no predecessor has reached
// yet (its depth-0 stack is a placeholder, not a fact).
type state struct {
	col map[loc]Colour
	wit map[loc]witness

	stk       []stackCell
	stkLost   bool
	stkVirgin bool
}

func newState() *state {
	return &state{col: map[loc]Colour{}, wit: map[loc]witness{}, stkVirgin: true}
}

func (s *state) clone() *state {
	c := &state{col: make(map[loc]Colour, len(s.col)), wit: make(map[loc]witness, len(s.wit)),
		stk: append([]stackCell{}, s.stk...), stkLost: s.stkLost, stkVirgin: s.stkVirgin}
	for k, v := range s.col {
		c.col[k] = v
	}
	for k, v := range s.wit {
		c.wit[k] = v
	}
	return c
}

// analysis carries one Analyze run.
type analysis struct {
	spec *Spec
	lat  ifa.Lattice
	bot  Colour
	g    *CFG

	pcCol     []Colour // implicit-flow colour per block
	handlerIn *state   // join state at interrupt-handler entries

	// cellsOn enables the frame-offset stack cells (stack.go); off, every
	// stack op uses the locStack summary as before.
	cellsOn bool
	// liveAfter maps instruction addresses to condition-code liveness
	// after the instruction (liveness.go); nil means live everywhere.
	liveAfter map[Word]bool

	rep      *Report
	seen     map[string]bool // violation/channel dedup
	warnSeen map[string]bool
}

// Analyze runs the static information-flow analysis of the image under the
// spec and returns the report.
func Analyze(img *asm.Image, spec Spec) (*Report, error) {
	g, err := buildCFG(img, !spec.Precision.NoVSA)
	if err != nil {
		return nil, err
	}
	return AnalyzeCFG(g, spec), nil
}

// AnalyzeCFG analyzes an already-built CFG (exposed for the fuzz harness
// and for tools that post-process the graph).
func AnalyzeCFG(g *CFG, spec Spec) *Report {
	a := &analysis{
		spec:     &spec,
		lat:      spec.lattice(),
		g:        g,
		pcCol:    make([]Colour, len(g.Blocks)),
		rep:      &Report{Name: spec.Name, Entry: spec.Entry, Blocks: len(g.Blocks), Instrs: g.NumInstrs()},
		seen:     map[string]bool{},
		warnSeen: map[string]bool{},
	}
	a.bot = a.lat.Bottom()
	for i := range a.pcCol {
		a.pcCol[i] = a.bot
	}
	// Interrupt delivery pushes a frame and reads the PSW between any two
	// instructions, so handler programs keep the coarse stack summary and
	// always-live condition codes.
	a.cellsOn = !spec.Precision.NoStackCells && len(g.IRQRoots) == 0
	if !spec.Precision.NoFlagLiveness {
		a.liveAfter = flagsLiveAfter(g)
	}
	a.handlerIn = newState()
	a.rep.Notes = append(a.rep.Notes, g.Notes...)
	a.run()
	sortFlows(a.rep.Violations)
	sortFlows(a.rep.Channels)
	sort.Strings(a.rep.Warnings)
	return a.rep
}

// def returns the declared colour of a location: registers, flags and the
// stack belong to the executing regime; memory cells to their region.
func (a *analysis) def(l loc) Colour {
	if l < memBase {
		return a.spec.Entry
	}
	if r := a.spec.regionAt(Word(l - memBase)); r != nil {
		return r.Colour
	}
	return a.bot // unmapped: faults at run time, warned separately
}

func (a *analysis) get(s *state, l loc) Colour {
	if c, ok := s.col[l]; ok {
		return c
	}
	return a.def(l)
}

func (a *analysis) set(s *state, l loc, c Colour, w witness) {
	if c == a.def(l) {
		delete(s.col, l)
	} else {
		s.col[l] = c
	}
	s.wit[l] = w
}

// joinInto joins src into dst, reporting whether dst changed.
func (a *analysis) joinInto(dst, src *state) bool {
	changed := false
	if a.cellsOn && a.joinStacks(dst, src) {
		changed = true
	}
	keys := map[loc]bool{}
	for k := range dst.col {
		keys[k] = true
	}
	for k := range src.col {
		keys[k] = true
	}
	for k := range keys {
		dc, sc := a.get(dst, k), a.get(src, k)
		j := a.lat.Lub(dc, sc)
		if j != dc {
			changed = true
			if j == a.def(k) {
				delete(dst.col, k)
			} else {
				dst.col[k] = j
			}
			// The colour rose because of src's contribution: adopt its
			// witness so chains point at the path that supplied the colour.
			if w, ok := src.wit[k]; ok {
				dst.wit[k] = w
			}
		} else if _, ok := dst.wit[k]; !ok {
			if w, ok := src.wit[k]; ok {
				dst.wit[k] = w
			}
		}
	}
	return changed
}

func (a *analysis) equalStates(x, y *state) bool {
	if a.cellsOn && !equalStacks(x, y) {
		return false
	}
	keys := map[loc]bool{}
	for k := range x.col {
		keys[k] = true
	}
	for k := range y.col {
		keys[k] = true
	}
	for k := range keys {
		if a.get(x, k) != a.get(y, k) {
			return false
		}
	}
	return true
}

func (a *analysis) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !a.warnSeen[msg] {
		a.warnSeen[msg] = true
		a.rep.Warnings = append(a.rep.Warnings, msg)
	}
}

// locDesc renders a location for reports.
func (a *analysis) locDesc(l loc) string {
	switch {
	case l >= locR0 && l < locR0+6:
		return fmt.Sprintf("register R%d", int(l))
	case l == locSP:
		return "register SP"
	case l == locFlags:
		return "condition codes"
	case l == locStack:
		return "stack"
	case l >= memBase:
		addr := Word(l - memBase)
		if r := a.spec.regionAt(addr); r != nil {
			return fmt.Sprintf("mem[%04x] (%s)", addr, r.Name)
		}
		return fmt.Sprintf("mem[%04x] (unmapped)", addr)
	}
	return "?"
}

// run drives the outer fixpoint: the inner worklist propagates colours
// under the current implicit-flow assignment; the implicit colours are then
// recomputed from the condition-code colours at conditional branches (via
// control dependence) and the interrupt-handler entry state from the join
// of every block (an interrupt may fire anywhere). Both only rise in a
// finite lattice, so the loop converges.
func (a *analysis) run() {
	deps := controlDeps(a.g)
	var outs []*state
	for iter := 0; ; iter++ {
		outs = a.inner(false)
		changed := false
		for bi := range a.g.Blocks {
			pc := a.bot
			for _, br := range deps[bi] {
				pc = a.lat.Lub(pc, a.get(outs[br], locFlags))
			}
			if pc != a.pcCol[bi] {
				a.pcCol[bi] = pc
				changed = true
			}
		}
		if len(a.g.IRQRoots) > 0 {
			h := newState()
			a.joinInto(h, a.entryState())
			for _, o := range outs {
				a.joinInto(h, o)
			}
			if !a.equalStates(h, a.handlerIn) {
				a.handlerIn = h
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter > len(a.g.Blocks)+8 {
			a.rep.Notes = append(a.rep.Notes, "fixpoint iteration bound hit; results are conservative")
			break
		}
	}
	// Reporting pass over the converged states.
	a.inner(true)
}

// entryState builds the program-entry state: everything at its declared
// colour (the maps start empty; defaults supply the colours), with a real
// depth-0 tracked stack.
func (a *analysis) entryState() *state {
	s := newState()
	s.stkVirgin = false
	return s
}

// inner runs the worklist dataflow under the current pcCol/handlerIn,
// returning each block's out-state. With report set, flow checks record
// violations and channel flows.
func (a *analysis) inner(report bool) []*state {
	n := len(a.g.Blocks)
	ins := make([]*state, n)
	for i := range ins {
		ins[i] = newState()
	}
	inWork := make([]bool, n)
	var work []int
	push := func(i int) {
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	a.joinInto(ins[a.g.Entry], a.entryState())
	for _, r := range a.g.IRQRoots {
		a.joinInto(ins[r], a.handlerIn)
	}
	// Seed every block, not just the roots: a block whose in-state join is
	// a no-op (all defaults) would otherwise never be processed, leaving
	// its out-state empty and the implicit-flow recomputation blind to any
	// condition-code colour it raises.
	push(a.g.Entry)
	for i := 0; i < n; i++ {
		push(i)
	}
	outs := make([]*state, n)
	for i := range outs {
		outs[i] = newState()
	}
	steps := 0
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		st := ins[bi].clone()
		for i := range a.g.Blocks[bi].Instrs {
			a.step(&a.g.Blocks[bi].Instrs[i], st, a.pcCol[bi], false)
		}
		outs[bi] = st
		for _, e := range a.g.Blocks[bi].Succs {
			if a.joinInto(ins[e.To], st) {
				push(e.To)
			}
		}
		// Safety bound: the lattice is finite so this terminates, but a
		// fuzzer-built CFG deserves a belt anyway.
		steps++
		if steps > 64*n+4096 {
			a.rep.Notes = append(a.rep.Notes, "worklist bound hit; results are conservative")
			break
		}
	}
	if report {
		// The reporting pass proper: one deterministic sweep over the
		// converged in-states, in block order.
		for bi, b := range a.g.Blocks {
			st := ins[bi].clone()
			for i := range b.Instrs {
				a.step(&b.Instrs[i], st, a.pcCol[bi], true)
			}
		}
	}
	return outs
}

// chain walks witnesses backwards from l to build a provenance chain.
func (a *analysis) chain(st *state, l loc) []string {
	var out []string
	seen := map[loc]bool{}
	for depth := 0; depth < 8 && l >= 0 && !seen[l]; depth++ {
		seen[l] = true
		w, ok := st.wit[l]
		if !ok {
			// Never written along this path: the colour is the declaration.
			out = append(out, fmt.Sprintf("%s is declared %s", a.locDesc(l), a.def(l)))
			break
		}
		if w.fromDesc == "" {
			out = append(out, fmt.Sprintf("%s set at %04x: %s", a.locDesc(l), w.addr, w.text))
			break
		}
		out = append(out, fmt.Sprintf("%s <- %s at %04x: %s", a.locDesc(l), w.fromDesc, w.addr, w.text))
		l = w.from
	}
	return out
}

// report records a flow, deduplicating across the reporting sweep.
func (a *analysis) report(f Flow) {
	key := fmt.Sprintf("%d|%04x|%s|%s", f.Kind, f.Addr, f.Dst, f.From)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	if f.Kind == FlowChannel {
		a.rep.Channels = append(a.rep.Channels, f)
	} else {
		a.rep.Violations = append(a.rep.Violations, f)
	}
}

// readOperand evaluates one operand for reading, returning its colour, the
// location it came from (locNone for constants and summaries) and a
// description.
func (a *analysis) readOperand(in *Instr, spec Word, ext Word, st *state) (Colour, loc, string) {
	mode, reg := machine.SpecMode(spec), machine.SpecReg(spec)
	switch mode {
	case machine.ModeReg:
		l := a.regLoc(reg)
		if l == locNone {
			return a.bot, locNone, "PC"
		}
		return a.get(st, l), l, a.locDesc(l)
	case machine.ModeExtended:
		if reg == machine.RegPC { // immediate
			return a.bot, locNone, "constant"
		}
		l := memLoc(ext)
		if a.spec.regionAt(ext) == nil {
			a.warnf("read of unmapped address %04x at %04x (%s) — faults at run time", ext, in.Addr, in.Text)
		}
		return a.get(st, l), l, a.locDesc(l)
	default: // indirect / indexed: the address is a run-time value
		c := a.get(st, a.regLocOr(reg, locSP))
		for i := range a.spec.Regions {
			c = a.lat.Lub(c, a.spec.Regions[i].Colour)
		}
		return c, locNone, fmt.Sprintf("mem[(R%d)] (address unresolved: any region)", reg)
	}
}

func (a *analysis) regLoc(reg int) loc {
	switch {
	case reg >= 0 && reg <= 5:
		return loc(reg)
	case reg == machine.RegSP:
		return locSP
	}
	return locNone // PC
}

func (a *analysis) regLocOr(reg int, fallback loc) loc {
	if l := a.regLoc(reg); l != locNone {
		return l
	}
	return fallback
}

// writeOperand performs a flow-checked store of colour c (already joined
// with the pc colour) into the destination operand.
func (a *analysis) writeOperand(in *Instr, spec, ext Word, c Colour, explicit Colour,
	from loc, fromDesc string, st *state, report bool) {
	mode, reg := machine.SpecMode(spec), machine.SpecReg(spec)
	switch mode {
	case machine.ModeReg:
		l := a.regLoc(reg)
		if l == locNone {
			a.warnf("write to PC at %04x (%s) treated as control transfer only", in.Addr, in.Text)
			return
		}
		if l == locSP {
			// An explicit SP write breaks the cell/SP correspondence.
			st.stackLose()
		}
		a.checkedSet(in, st, l, c, explicit, from, fromDesc, report)
	case machine.ModeExtended:
		if reg == machine.RegPC {
			return // immediate destination: rejected by the assembler
		}
		if a.spec.regionAt(ext) == nil {
			a.warnf("write to unmapped address %04x at %04x (%s) — faults at run time", ext, in.Addr, in.Text)
		}
		a.checkedSet(in, st, memLoc(ext), c, explicit, from, fromDesc, report)
	default:
		// Store through a run-time address: it could land in any declared
		// region, so the value must flow to every one of them — and it may
		// alias the stack, so the tracked cells collapse.
		st.stackLose()
		if report {
			for i := range a.spec.Regions {
				r := &a.spec.Regions[i]
				if !a.lat.Leq(c, r.Colour) {
					a.report(Flow{
						Kind: FlowStore, Addr: in.Addr, Text: in.Text,
						From: c, To: r.Colour,
						Dst:      fmt.Sprintf("mem[(R%d)] may reach %s", reg, r.Name),
						Implicit: a.lat.Leq(explicit, r.Colour),
						Chain:    a.chain(st, from),
					})
				}
			}
		}
	}
}

// checkedSet applies the certification rule — c (= value ⊔ pc) must flow to
// the destination's declared colour — then updates the state.
func (a *analysis) checkedSet(in *Instr, st *state, l loc, c Colour, explicit Colour,
	from loc, fromDesc string, report bool) {
	d := a.def(l)
	if report && !a.lat.Leq(c, d) {
		a.report(Flow{
			Kind: FlowStore, Addr: in.Addr, Text: in.Text,
			From: c, To: d, Dst: a.locDesc(l),
			Implicit: a.lat.Leq(explicit, d),
			Chain:    a.chain(st, from),
		})
	}
	a.set(st, l, c, witness{addr: in.Addr, text: in.Text, from: from, fromDesc: fromDesc})
}

// kernelSet models a register written by the kernel on service return: the
// value is produced by the kernel about this regime's own view, so it
// carries the regime's colour (or bottom) without a flow check.
func (a *analysis) kernelSet(in *Instr, st *state, l loc, c Colour) {
	a.set(st, l, c, witness{addr: in.Addr, text: in.Text, from: locNone, fromDesc: "kernel service result"})
}

// step applies one instruction's transfer function.
func (a *analysis) step(in *Instr, st *state, pc Colour, report bool) {
	op := in.Op
	srcSpec, srcExt, dstSpec, dstExt := in.Operands()

	// Flag writes are flow-checked only where the condition codes are live
	// (liveness.go); the colour always propagates so the state stays sound.
	flagsLive := a.liveAfter == nil || a.liveAfter[in.Addr]
	setFlags := func(c Colour, from loc, fromDesc string) {
		a.checkedSet(in, st, locFlags, c, c, from, fromDesc, report && flagsLive)
	}

	switch op {
	case machine.OpMOV:
		c, from, fromDesc := a.readOperand(in, srcSpec, srcExt, st)
		joined := a.lat.Lub(c, pc)
		a.writeOperand(in, dstSpec, dstExt, joined, c, from, fromDesc, st, report)
		setFlags(joined, from, fromDesc)

	case machine.OpADD, machine.OpSUB, machine.OpAND, machine.OpOR,
		machine.OpXOR, machine.OpSHL, machine.OpSHR, machine.OpMUL:
		sc, sfrom, sdesc := a.readOperand(in, srcSpec, srcExt, st)
		dc, _, _ := a.readOperand(in, dstSpec, dstExt, st)
		mixed := a.lat.Lub(sc, dc)
		joined := a.lat.Lub(mixed, pc)
		from, fromDesc := sfrom, sdesc
		if !a.lat.Leq(sc, dc) && sfrom == locNone {
			from, fromDesc = locNone, sdesc
		}
		a.writeOperand(in, dstSpec, dstExt, joined, mixed, from, fromDesc, st, report)
		setFlags(joined, from, fromDesc)

	case machine.OpCMP:
		sc, sfrom, sdesc := a.readOperand(in, srcSpec, srcExt, st)
		dc, _, _ := a.readOperand(in, dstSpec, dstExt, st)
		setFlags(a.lat.Lub(a.lat.Lub(sc, dc), pc), sfrom, sdesc)

	case machine.OpNOT, machine.OpNEG:
		dc, from, fromDesc := a.readOperand(in, dstSpec, dstExt, st)
		joined := a.lat.Lub(dc, pc)
		a.writeOperand(in, dstSpec, dstExt, joined, dc, from, fromDesc, st, report)
		setFlags(joined, from, fromDesc)

	case machine.OpPUSH:
		sc, from, fromDesc := a.readOperand(in, srcSpec, srcExt, st)
		pushed := a.lat.Lub(sc, pc)
		if a.cellsOn && st.stackTracked() {
			// Precise cell: flow-check the push against the stack's
			// declared colour, record the exact pushed colour at this
			// depth, and keep the summary absorbing it for any later
			// collapse.
			if report && !a.lat.Leq(pushed, a.def(locStack)) {
				a.report(Flow{
					Kind: FlowStore, Addr: in.Addr, Text: in.Text,
					From: pushed, To: a.def(locStack), Dst: a.locDesc(locStack),
					Implicit: a.lat.Leq(sc, a.def(locStack)),
					Chain:    a.chain(st, from),
				})
			}
			w := witness{addr: in.Addr, text: in.Text, from: from, fromDesc: fromDesc}
			st.stackPush(stackCell{col: pushed, wit: w})
			a.set(st, locStack, a.lat.Lub(pushed, a.get(st, locStack)), w)
		} else {
			joined := a.lat.Lub(pushed, a.get(st, locStack))
			a.checkedSet(in, st, locStack, joined, sc, from, fromDesc, report)
		}

	case machine.OpPOP:
		var cell stackCell
		ok := false
		if a.cellsOn {
			cell, ok = st.stackPop()
		}
		if ok {
			// Precise cell: the pop carries exactly the colour pushed at
			// this depth, with the push's own witness for the chain.
			st.wit[locStack] = cell.wit
			c := a.lat.Lub(cell.col, pc)
			a.writeOperand(in, dstSpec, dstExt, c, cell.col, locStack, a.locDesc(locStack), st, report)
		} else {
			c := a.lat.Lub(a.get(st, locStack), pc)
			a.writeOperand(in, dstSpec, dstExt, c, a.get(st, locStack), locStack, a.locDesc(locStack), st, report)
		}

	case machine.OpMFPS:
		c := a.lat.Lub(a.get(st, locFlags), pc)
		a.writeOperand(in, dstSpec, dstExt, c, a.get(st, locFlags), locFlags, a.locDesc(locFlags), st, report)

	case machine.OpMTPS:
		sc, from, fromDesc := a.readOperand(in, srcSpec, srcExt, st)
		setFlags(a.lat.Lub(sc, pc), from, fromDesc)

	case machine.OpTRAP:
		a.trap(in, st, pc, report)

	case machine.OpJSR:
		if a.cellsOn {
			// The pushed return address is a code constant; only the
			// implicit pc colour rides on which address it is.
			w := witness{addr: in.Addr, text: in.Text, from: locNone, fromDesc: "return address"}
			st.stackPush(stackCell{col: pc, wit: w})
			a.set(st, locStack, a.lat.Lub(pc, a.get(st, locStack)), w)
		}

	case machine.OpRTS:
		if a.cellsOn {
			st.stackPop() // discard the tracked return address
		}

	case machine.OpRTI:
		if a.cellsOn {
			// Pops a PC/PSW frame the analyzer did not see pushed.
			st.stackLose()
		}

	case machine.OpHALT:
		// A kernel fragment's HALT is the dispatch: the hardware hands the
		// register file to the incoming regime named by the spec.
		if dc := a.spec.DispatchColour; dc != "" && report {
			for r := 0; r < 6; r++ {
				c := a.get(st, loc(r))
				if !a.lat.Leq(c, dc) {
					a.report(Flow{
						Kind: FlowStore, Addr: in.Addr, Text: in.Text,
						From: c, To: dc,
						Dst:   fmt.Sprintf("register R%d handed to the %s regime at dispatch", r, dc),
						Chain: a.chain(st, loc(r)),
					})
				}
			}
		}
	}
	// Branches, JMP, WAIT and NOP move no data; branch conditions reach
	// the analysis through control dependence instead.
}
