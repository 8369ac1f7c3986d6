package staticflow

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
)

// Kernel-service summaries. TRAP instructions used to be coloured by a
// fixed ABI switch written by hand inside the analyzer; this file derives
// the same transfer functions from the footprint table the kernel itself
// exports (kernel.Footprints(), held in sync with layout.go by the seplint
// trap-summary-sync rule). Each service's summary is regime-indexed by
// construction: the save-area slots a service reads and writes are the
// *calling* regime's slots at its own SaveBase, so a trap never joins
// colours across regimes — the registers that ride across do so unchanged,
// saved into and restored from the caller's own area.
//
// The register effects map onto the analyzer's lattice as:
//
//   EffKernelOwn  — a kernel-produced fact about the caller's own view
//                   (status, occupancy): the caller's entry colour;
//   EffConfig     — a static configuration constant (the regime index):
//                   lattice bottom;
//   EffChannelIn  — a datum imported from the channel peer: relabelled at
//                   the cut endpoint X2, or flow-checked against the entry
//                   colour when channels are modelled uncut.
//
// A service with ChanOutReg set is the declared export endpoint X1: the
// named register's colour leaves through the kernel channel and is reported
// as a sanctioned channel flow, never a violation.

// trap applies the summary of the kernel service named by the TRAP code.
func (a *analysis) trap(in *Instr, st *state, pc Colour, report bool) {
	code := machine.TrapCodeOf(in.Words[0])
	entry := a.spec.Entry
	fp, ok := kernel.FootprintFor(code)
	if !ok {
		// Unknown service: the kernel writes an error status into R0.
		a.kernelSet(in, st, loc(0), entry)
		return
	}
	if fp.ChanOutReg >= 0 {
		c := a.lat.Lub(a.get(st, loc(fp.ChanOutReg)), pc)
		if report {
			a.report(Flow{
				Kind: FlowChannel, Addr: in.Addr, Text: in.Text,
				From: c, To: entry,
				Dst: fmt.Sprintf("SEND endpoint (X1): R%d leaves through the kernel channel",
					fp.ChanOutReg),
				Chain: a.chain(st, loc(fp.ChanOutReg)),
			})
		}
	}
	inColour := entry // cut endpoint X2: relabelled on import
	if fp.ChanInReg >= 0 {
		if a.spec.Uncut {
			for _, p := range a.spec.Peers {
				inColour = a.lat.Lub(inColour, p)
			}
		}
		if report {
			a.report(Flow{
				Kind: FlowChannel, Addr: in.Addr, Text: in.Text,
				From: inColour, To: entry,
				Dst: fmt.Sprintf("RECV endpoint (X2): R%d imported through the kernel channel",
					fp.ChanInReg),
			})
		}
	}
	for _, rw := range fp.WriteRegs {
		switch rw.Effect {
		case kernel.EffKernelOwn:
			a.kernelSet(in, st, loc(rw.Reg), entry)
		case kernel.EffConfig:
			a.kernelSet(in, st, loc(rw.Reg), a.bot)
		case kernel.EffChannelIn:
			// Uncut channels are the configured flows `sepverify -target
			// honest-uncut` shows: the import is flow-checked instead of
			// relabelled.
			a.checkedSet(in, st, loc(rw.Reg), inColour, inColour, locNone,
				"uncut channel import", report)
		}
	}
	// Services whose footprint writes no registers (SWAP, IRQON/IRQOFF,
	// WAITIRQ, HALTME) leave the register file untouched: the caller's
	// registers are saved into and restored from its own save area.
}
