// Package staticflow is a static information-flow analyzer for assembled
// SM11 machine programs — the machine-level counterpart of the structured-IR
// certifier in package ifa, built so the paper's §4 critique can be
// demonstrated on the code this repository actually executes rather than on
// a toy language.
//
// The analyzer is deliberately faithful to the technique the paper
// criticizes: it is *syntactic*. Every register and memory cell carries a
// security colour from an isolation lattice (package ifa's lattices are
// reused verbatim), the colour of a computed value is the least upper bound
// of its operands, and a store is certified only if the value's colour —
// joined with the implicit-flow colour of the governing branches — flows to
// the destination's declared colour. Values are never consulted. The
// pipeline is:
//
//  1. BuildCFG decodes the assembled image into basic blocks, following
//     fall-throughs, branches, JMP/JSR/RTS, TRAP resumption, and the
//     interrupt edges implied by writes to the regime vector table;
//  2. postdominators over the CFG yield control dependence, which turns the
//     condition-code colour at each conditional branch into the implicit
//     "pc colour" of every block the branch controls;
//  3. a worklist fixpoint propagates per-register/per-cell colours, with the
//     kernel's TRAP ABI built in: SEND and RECV are the declared channel
//     endpoints — the X1/X2 aliases of the paper's channel-cutting argument —
//     and are the only sanctioned points where information may change
//     colour.
//
// Violations carry instruction-level provenance chains (which load gave the
// offending register its colour, and so on).
//
// The headline use is AnalyzeKernelSwap: the kernel's own context-switch
// sequence, written over the real save-area addresses of internal/kernel's
// layout, is REJECTED by this analyzer — BLACK save-area words syntactically
// reach the RED-classified register file — while package separability
// proves the very same kernel separable. That is Rushby's "manifestly
// secure but uncertifiable" SWAP, reproduced on genuine machine code.
package staticflow

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ifa"
	"repro/internal/machine"
)

// Word aliases the machine word type.
type Word = machine.Word

// Colour aliases ifa.Class: staticflow reuses the ifa lattices so the two
// analyzers are comparable verdict-for-verdict (see cmd/ifacheck -compare).
type Colour = ifa.Class

// Region declares the colour of a half-open range [Lo, Hi) of addresses in
// the analyzed program's address space.
type Region struct {
	Name   string
	Lo, Hi Word
	Colour Colour
}

// Contains reports whether the region covers address a.
func (r *Region) Contains(a Word) bool { return a >= r.Lo && a < r.Hi }

// Precision switches off individual precision levers, restoring the
// analyzer's original coarse behaviour. All levers default to on; the
// toggles exist for the differential tests that prove the precise analyzer
// never certifies a program the coarse one rejected for a real reason, and
// for bisecting which lever a verdict change came from.
type Precision struct {
	// NoVSA disables value-set resolution of indirect JMP/JSR: every
	// indirect site keeps the unresolved note and top-colour treatment.
	NoVSA bool
	// NoStackCells disables frame-offset stack cells: PUSH/POP/JSR/RTS all
	// flow through the single joined stack summary location.
	NoStackCells bool
	// NoFlagLiveness disables dead-condition-code suppression: every
	// flag-setting instruction is flow-checked even when the codes are
	// provably overwritten before any use.
	NoFlagLiveness bool
}

// Spec classifies an analysis subject: the colour of the executing context
// (which classifies the register file and condition codes), the coloured
// memory regions, and how channel endpoints behave.
type Spec struct {
	// Name labels the report.
	Name string
	// Entry is the colour of the executing regime: the registers, flags and
	// stack are classified Entry, and the implicit-flow colour starts at the
	// lattice bottom.
	Entry Colour
	// Regions colour the address space. Addresses outside every region are
	// reported as warnings (they fault at run time under the MMU).
	Regions []Region
	// Peers are the colours reachable over configured channels. With Uncut
	// set, a RECV imports the join of the peer colours instead of being
	// relabelled at the cut endpoint — reproducing `sepverify -target
	// honest-uncut`, which shows the configured channels as flows.
	Peers []Colour
	Uncut bool
	// Lattice defaults to ifa.Isolation over every colour mentioned in the
	// spec.
	Lattice ifa.Lattice
	// DispatchColour, when set, marks the program as a kernel fragment that
	// ends by dispatching the named regime: at each HALT the general
	// registers are flow-checked against this colour, since the hardware
	// hands them to that regime's code. This is how a skipped restore in a
	// context switch (a register still carrying the outgoing regime's data)
	// becomes a reported flow.
	DispatchColour Colour
	// Precision selectively disables precision levers (tests only).
	Precision Precision
}

// lattice returns the spec's lattice, building the default isolation
// lattice when unset.
func (s *Spec) lattice() ifa.Lattice {
	if s.Lattice != nil {
		return s.Lattice
	}
	seen := map[Colour]bool{s.Entry: true}
	atoms := []Colour{s.Entry}
	add := func(c Colour) {
		if c != ifa.IsolationBottom && c != ifa.IsolationTop && !seen[c] {
			seen[c] = true
			atoms = append(atoms, c)
		}
	}
	for _, r := range s.Regions {
		add(r.Colour)
	}
	for _, p := range s.Peers {
		add(p)
	}
	if s.DispatchColour != "" {
		add(s.DispatchColour)
	}
	return ifa.Isolation(atoms...)
}

// regionAt returns the region containing a, or nil.
func (s *Spec) regionAt(a Word) *Region {
	for i := range s.Regions {
		if s.Regions[i].Contains(a) {
			return &s.Regions[i]
		}
	}
	return nil
}

// FlowKind distinguishes the reportable flows.
type FlowKind int

// Flow kinds.
const (
	// FlowStore is an uncertifiable store: value colour ⊔ pc colour does
	// not flow to the destination's declared colour.
	FlowStore FlowKind = iota
	// FlowChannel is a sanctioned endpoint flow: information leaving or
	// entering through the kernel's SEND/RECV services, the declared
	// declassification points.
	FlowChannel
)

// Flow is one information flow: a violation (FlowStore) or a sanctioned
// channel endpoint crossing (FlowChannel).
type Flow struct {
	Kind     FlowKind
	Addr     Word   // address of the responsible instruction
	Text     string // its disassembly
	From, To Colour
	Dst      string // destination description ("register R0", "mem[0x121] (save.black)")
	Implicit bool   // true when the pc colour alone pushed the flow over
	Chain    []string
}

func (f Flow) String() string {
	kind := "explicit"
	if f.Implicit {
		kind = "implicit"
	}
	if f.Kind == FlowChannel {
		return fmt.Sprintf("channel %s at %04x: %s [%s]", f.From, f.Addr, f.Text, f.Dst)
	}
	return fmt.Sprintf("%s flow %s -> %s at %04x: %s [%s]", kind, f.From, f.To, f.Addr, f.Text, f.Dst)
}

// Report is the outcome of analyzing one program.
type Report struct {
	Name   string
	Entry  Colour
	Blocks int
	Instrs int
	// Violations are the uncertifiable flows; empty means CERTIFIED.
	Violations []Flow
	// Channels are the sanctioned endpoint flows (listed, not violations).
	Channels []Flow
	// Warnings note accesses outside every declared region and other
	// conservative assumptions taken.
	Warnings []string
	// Notes carry CFG construction caveats (unresolved indirect jumps...).
	Notes []string
}

// Certified reports whether the analysis found no uncertifiable flow.
func (r *Report) Certified() bool { return len(r.Violations) == 0 }

// Verdict renders the one-word outcome.
func (r *Report) Verdict() string {
	if r.Certified() {
		return "CERTIFIED"
	}
	return "REJECTED"
}

// Summary renders a one-line outcome.
func (r *Report) Summary() string {
	if r.Certified() {
		return fmt.Sprintf("%s: CERTIFIED (%d instructions, %d blocks, %d channel flows)",
			r.Name, r.Instrs, r.Blocks, len(r.Channels))
	}
	return fmt.Sprintf("%s: REJECTED (%d violations, first: %s)",
		r.Name, len(r.Violations), r.Violations[0])
}

// String renders the full report deterministically (golden-tested).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (entry colour %s)\n", r.Name, r.Entry)
	fmt.Fprintf(&b, "  %d instructions in %d blocks\n", r.Instrs, r.Blocks)
	fmt.Fprintf(&b, "  verdict: %s", r.Verdict())
	if !r.Certified() {
		fmt.Fprintf(&b, " (%d violations)", len(r.Violations))
	}
	b.WriteByte('\n')
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
		for _, c := range v.Chain {
			fmt.Fprintf(&b, "      %s\n", c)
		}
	}
	for _, c := range r.Channels {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// sortFlows fixes a deterministic report order: by address, then dst.
func sortFlows(fs []Flow) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Addr != fs[j].Addr {
			return fs[i].Addr < fs[j].Addr
		}
		return fs[i].Dst < fs[j].Dst
	})
}
