// Package minisue is a kernel-shaped system small enough to *prove*
// separable by exhaustive model checking — the executable analogue of the
// formal proof Rushby gives for a SUE-like kernel in the companion paper
// [31]. Where package separability's ToySystem calibrates the checker with
// arbitrary condition violations, MiniSUE has the *structure* of the real
// kernel: a shared CPU accumulator that context switches through per-regime
// save slots, per-regime program counters, interrupt pending flags fed by
// coloured inputs, and per-regime output latches.
//
// The state space (73,728 states × 4 inputs; 147,456 for SharedCell, whose
// kernel cell doubles it) is enumerated completely, so CheckExhaustive
// constitutes a genuine proof that the six conditions hold of the secure
// variant — and the fault-injected variants (mirroring the real kernel's
// Leaks) are refuted with counterexamples.
//
// Every encoding the checker reads — Φ^c, NEXTOP and both extracts — has a
// handful of possible values, so each is rendered once at init into a
// table and the hot path only indexes it.
package minisue

import (
	"fmt"

	"repro/internal/model"
)

// Variant selects the kernel behaviour.
type Variant int

// Variants. Each insecure one mirrors a kernel.Leaks entry.
const (
	// Secure is the correct mini separation kernel.
	Secure Variant = iota
	// RegisterLeak omits reloading the accumulator from the incoming
	// regime's save slot on SWAP (kernel.Leaks.RegisterLeak).
	RegisterLeak
	// InterruptMisroute posts incoming interrupts to the other regime's
	// pending flag (kernel.Leaks.InterruptMisroute).
	InterruptMisroute
	// SharedCell gives both regimes' OUT operation a common scratch cell:
	// writer's accumulator parity lands where the other's INC reads it
	// (kernel.Leaks.SharedScratch).
	SharedCell
)

// VariantName names a variant.
func VariantName(v Variant) string {
	switch v {
	case Secure:
		return "secure"
	case RegisterLeak:
		return "register-leak"
	case InterruptMisroute:
		return "interrupt-misroute"
	case SharedCell:
		return "shared-cell"
	}
	return "unknown"
}

// Each regime runs the fixed three-instruction loop INC; OUT; SWAP.
const progLen = 3

// state is the complete concrete machine state, one byte per field so the
// enumerated space packs densely.
type state struct {
	cur  uint8    // which regime holds the CPU
	acc  uint8    // the shared CPU accumulator (2 bits)
	save [2]uint8 // per-regime accumulator save slots
	pc   [2]uint8 // per-regime program counters (0..2)
	out  [2]uint8 // per-regime output latches
	pend [2]uint8 // per-regime interrupt pending flags
	cell uint8    // kernel-internal cell (used by SharedCell)
}

// input is one stimulus: an interrupt request bit per regime.
type input struct{ irq [2]int }

// Colours of the two regimes.
var Colours = []model.Colour{"red", "black"}

// outputs is CurrentOutput's value: regime c's 2-bit output latch at bits
// 2c..2c+1. A one-byte value boxes into a model.Output without allocating.
type outputs uint8

// The canonical encodings, rendered once. phiTable is indexed by phiIndex;
// opTable by regime and program step, with step progLen meaning interrupt
// delivery.
var (
	phiTable [4 * progLen * 4 * 2]string
	opTable  [2][progLen + 1]model.OpID
	irqTable [2]string
	outTable [4]string
)

func phiIndex(acc, pc, out, pend uint8) int {
	return ((int(acc)*progLen+int(pc))*4+int(out))*2 + int(pend)
}

func init() {
	for acc := uint8(0); acc < 4; acc++ {
		for pc := uint8(0); pc < progLen; pc++ {
			for out := uint8(0); out < 4; out++ {
				for pend := uint8(0); pend < 2; pend++ {
					phiTable[phiIndex(acc, pc, out, pend)] =
						fmt.Sprintf("acc=%d;pc=%d;out=%d;pend=%d", acc, pc, out, pend)
				}
			}
		}
	}
	names := [progLen + 1]string{"inc", "out", "swap", "deliver"}
	for c := range opTable {
		for k, name := range names {
			opTable[c][k] = model.OpID(fmt.Sprintf("%s:%s", name, Colours[c]))
		}
	}
	for b := range irqTable {
		irqTable[b] = fmt.Sprintf("irq=%d", b)
	}
	for o := range outTable {
		outTable[o] = fmt.Sprintf("out=%d", o)
	}
}

func colourIndex(c model.Colour) int {
	if c == Colours[0] {
		return 0
	}
	return 1
}

// System implements model.Enumerable and model.Perturbable.
type System struct {
	Variant Variant
	s       state
}

// New creates a MiniSUE in its boot state.
func New(v Variant) *System { return &System{Variant: v} }

// Clone implements model.Replicable: the whole machine state is one value,
// so a copy of the System is an independent replica.
func (m *System) Clone() model.SharedSystem {
	c := *m
	return &c
}

// Colours implements model.SharedSystem.
func (m *System) Colours() []model.Colour {
	return append([]model.Colour(nil), Colours...)
}

// Save implements model.SharedSystem.
func (m *System) Save() model.StateRef { s := m.s; return &s }

// Restore implements model.SharedSystem.
func (m *System) Restore(r model.StateRef) { m.s = *r.(*state) }

// Colour implements model.SharedSystem: interrupts are delivered to the
// current regime first, so the active colour is always the current one.
func (m *System) Colour() model.Colour { return Colours[m.s.cur] }

// NextOp implements model.SharedSystem. The operation is determined by
// the current regime's own state: deliver a pending interrupt, or execute
// its next program step.
func (m *System) NextOp() model.OpID {
	c := m.s.cur
	if m.s.pend[c] == 1 {
		return opTable[c][progLen]
	}
	return opTable[c][m.s.pc[c]]
}

// Step implements model.SharedSystem.
func (m *System) Step() {
	c := m.s.cur
	if m.s.pend[c] == 1 {
		// Interrupt delivery: the regime's handler bumps the accumulator
		// by 2 (a visible, regime-local effect) and the flag clears.
		m.s.pend[c] = 0
		m.s.acc = (m.s.acc + 2) & 3
		return
	}
	switch m.s.pc[c] {
	case 0: // INC
		m.s.acc = (m.s.acc + 1) & 3
		if m.Variant == SharedCell {
			// Insecure: the increment also absorbs the shared cell.
			m.s.acc = (m.s.acc + m.s.cell) & 3
		}
		m.s.pc[c] = 1
	case 1: // OUT
		m.s.out[c] = m.s.acc
		if m.Variant == SharedCell {
			m.s.cell = m.s.acc & 1
		}
		m.s.pc[c] = 2
	case 2: // SWAP — the context switch through the save slots.
		m.s.save[c] = m.s.acc
		m.s.cur = 1 - c
		if m.Variant != RegisterLeak {
			m.s.acc = m.s.save[1-c]
		}
		// (RegisterLeak: the incoming regime sees the outgoing
		// accumulator — the paper's exact SWAP hazard.)
		m.s.pc[c] = 0
	}
}

// ApplyInput implements model.SharedSystem: each regime's input bit raises
// its interrupt pending flag.
func (m *System) ApplyInput(in model.Input) {
	if in == nil {
		return
	}
	i := in.(input)
	for c := 0; c < 2; c++ {
		target := c
		if m.Variant == InterruptMisroute {
			target = 1 - c
		}
		if i.irq[c] == 1 {
			m.s.pend[target] = 1
		}
	}
}

// CurrentOutput implements model.SharedSystem: the two output latches,
// packed (see outputs).
func (m *System) CurrentOutput() model.Output {
	return outputs(m.s.out[0] | m.s.out[1]<<2)
}

// Abstract implements model.SharedSystem: a regime's abstract machine is
// its accumulator (live or saved), program counter, output latch and
// pending flag — exactly the per-regime view of the real adapter.
func (m *System) Abstract(c model.Colour) string {
	i := colourIndex(c)
	acc := m.s.save[i]
	if int(m.s.cur) == i {
		acc = m.s.acc
	}
	return phiTable[phiIndex(acc, m.s.pc[i], m.s.out[i], m.s.pend[i])]
}

// ExtractInput implements model.SharedSystem.
func (m *System) ExtractInput(c model.Colour, in model.Input) string {
	if in == nil {
		return ""
	}
	return irqTable[in.(input).irq[colourIndex(c)]]
}

// ExtractOutput implements model.SharedSystem.
func (m *System) ExtractOutput(c model.Colour, o model.Output) string {
	return outTable[o.(outputs)>>(2*colourIndex(c))&3]
}

// EnumerateStates implements model.Enumerable: every concrete state, each
// a pointer into one slice allocated per call.
func (m *System) EnumerateStates(fn func(model.StateRef) bool) {
	cells := uint8(1)
	if m.Variant == SharedCell {
		cells = 2
	}
	all := make([]state, 0, 2*4*4*4*progLen*progLen*4*4*2*2*int(cells))
	for cur := uint8(0); cur < 2; cur++ {
		for acc := uint8(0); acc < 4; acc++ {
			for s0 := uint8(0); s0 < 4; s0++ {
				for s1 := uint8(0); s1 < 4; s1++ {
					for p0 := uint8(0); p0 < progLen; p0++ {
						for p1 := uint8(0); p1 < progLen; p1++ {
							for o0 := uint8(0); o0 < 4; o0++ {
								for o1 := uint8(0); o1 < 4; o1++ {
									for q0 := uint8(0); q0 < 2; q0++ {
										for q1 := uint8(0); q1 < 2; q1++ {
											for cl := uint8(0); cl < cells; cl++ {
												all = append(all, state{cur: cur, acc: acc,
													save: [2]uint8{s0, s1},
													pc:   [2]uint8{p0, p1},
													out:  [2]uint8{o0, o1},
													pend: [2]uint8{q0, q1},
													cell: cl})
												if !fn(&all[len(all)-1]) {
													return
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// EnumerateInputs implements model.Enumerable.
func (m *System) EnumerateInputs(fn func(model.Input) bool) {
	for r := 0; r < 2; r++ {
		for b := 0; b < 2; b++ {
			if !fn(input{irq: [2]int{r, b}}) {
				return
			}
		}
	}
}

// Randomize implements model.Perturbable.
func (m *System) Randomize(r model.Rand) {
	m.s = state{
		cur:  draw(r, 2),
		acc:  draw(r, 4),
		save: [2]uint8{draw(r, 4), draw(r, 4)},
		pc:   [2]uint8{draw(r, progLen), draw(r, progLen)},
		out:  [2]uint8{draw(r, 4), draw(r, 4)},
		pend: [2]uint8{draw(r, 2), draw(r, 2)},
	}
	if m.Variant == SharedCell {
		m.s.cell = draw(r, 2)
	}
}

// PerturbOutside implements model.Perturbable.
func (m *System) PerturbOutside(c model.Colour, r model.Rand) {
	o := 1 - colourIndex(c)
	if int(m.s.cur) == o {
		m.s.acc = draw(r, 4)
	} else {
		m.s.save[o] = draw(r, 4)
	}
	m.s.pc[o] = draw(r, progLen)
	m.s.out[o] = draw(r, 4)
	// pend[o] stays: flipping it would not change Φc, but it is part of
	// the other colour's control state the checker samples anyway.
	m.s.cell = draw(r, 2)
}

// draw returns a uniform value in [0, n).
func draw(r model.Rand, n int) uint8 { return uint8(r.Intn(n)) }

// RandomInput implements model.Perturbable.
func (m *System) RandomInput(r model.Rand) model.Input {
	return input{irq: [2]int{r.Intn(2), r.Intn(2)}}
}

// RandomInputMatching implements model.Perturbable.
func (m *System) RandomInputMatching(c model.Colour, in model.Input, r model.Rand) model.Input {
	i := colourIndex(c)
	out := input{irq: [2]int{r.Intn(2), r.Intn(2)}}
	if in != nil {
		out.irq[i] = in.(input).irq[i]
	} else {
		out.irq[i] = 0
	}
	return out
}
