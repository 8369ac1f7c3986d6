// Package kernel implements SUE-Go, a separation kernel for the SM11
// machine modelled on the RSRE "Secure User Environment" described in the
// paper. Like the SUE it is deliberately minimal:
//
//   - each regime is permanently allocated a fixed partition of real memory;
//   - there is no scheduler beyond round-robin: regimes run until they
//     voluntarily SWAP (or fault);
//   - there is no DMA anywhere in the system, so devices are owned by
//     regimes outright: a regime's device registers are mapped into its
//     address space and the kernel's only I/O duty is to field interrupts
//     (which the hardware vectors through kernel space) and pass them on;
//   - the kernel knows nothing of any security policy — it only provides
//     separation plus the explicitly configured inter-regime channels.
//
// The kernel's code is Go (the "microcode" substitution recorded in
// DESIGN.md) but all kernel *data* — register save areas, channel buffers,
// scheduling state, pending-interrupt words — lives in the kernel's own RAM
// partition, so a machine.Snapshot captures the complete concrete state S
// of the paper's model.
package kernel

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// Word aliases the machine word.
type Word = machine.Word

// Kernel memory layout (physical word addresses). The kernel occupies
// [0, KernelEnd); regime partitions are allocated at or above KernelEnd.
const (
	// KStubBase is where trap/interrupt vectors point. Stub address
	// KStubBase+v identifies vector v; the Go kernel intercepts execution
	// the moment the machine lands on a stub. Each stub word holds HALT so
	// an unintercepted entry stops the machine instead of running wild.
	KStubBase Word = 0x080

	// KIdle is a two-instruction idle loop (WAIT; BR .-2) executed in
	// kernel mode at priority 0 when no regime is runnable.
	KIdle Word = 0x0F0

	// KData is the base of the kernel data area.
	KData Word = 0x100

	// KStackTop is the kernel stack top; the stack holds at most one
	// trap frame (two words) at a time because kernel services are atomic.
	KStackTop Word = 0x400

	// KernelEnd is the first address available for regime partitions.
	KernelEnd Word = 0x400
)

// Kernel data area layout, relative to KData.
const (
	kdCurrent   Word = 0 // index of the regime now holding the CPU
	kdNumReg    Word = 1 // number of configured regimes
	kdScratch   Word = 2 // kernel scratch word (the SharedScratch leak exposes it)
	kdSliceLeft Word = 3 // fixed-slice mode: cycles left in the current slice
	kdParked    Word = 4 // fixed-slice mode: 1 when the current regime yielded early
	kdSaves     Word = 16

	// Per-regime save area, stride words each, at kdSaves + i*saveStride.
	// The first eight slots hold R0–R5, SP, PC in machine register order,
	// so register r is saved at saveR0+r (Kernel.RegimeReg relies on it).
	saveR0      Word = 0 // R0..R5 at +0..+5
	saveSP      Word = 6
	savePC      Word = 7
	savePSW     Word = 8
	saveState   Word = 9  // regime run state (see RegimeState)
	savePending Word = 10 // pending-interrupt bitmask over owned devices
	saveIPL     Word = 11 // virtual interrupt mask: 0 = open, 1 = masked
	saveStride  Word = 16
)

// Channel layout, relative to a channel's base: an eight-word header, then
// two rings of the configured capacity, buffer A at chBuf and buffer B at
// chBuf+capacity. Each buffer keeps a head, tail and count triple in the
// header, buffer A's at word 0 and buffer B's at word chHdrB; word 7 is
// reserved. A channel's sending end is always buffer A. Its receiving end
// is buffer A too, unless the channels are cut: then it is buffer B, which
// nothing ever fills, so the channel's shared object X is split into X1
// (the writer's end) and X2 (the reader's). Kernel.validate builds both
// ends once (chanEnd); nothing else chooses between the buffers.
const (
	chHead  Word = 0 // slot of the oldest queued word, relative to an end's triple
	chTail  Word = 1 // slot the next send fills, relative to an end's triple
	chCount Word = 2 // words queued, relative to an end's triple
	chCap   Word = 3 // capacity of each buffer, in words
	chHdrB  Word = 4 // buffer B's head, tail and count triple
	chBuf   Word = 8 // buffer A's first slot
)

// chanEnd is one end of a channel: the channel's header base (whose chCap
// word gives the ring size), the address of the end's head, tail and count
// triple, and the address of the end's first ring slot.
type chanEnd struct{ base, hdr, buf Word }

// RegimeState values stored in a regime's saveState word.
const (
	StateRunnable Word = 1 // eligible for the round-robin
	StateDead     Word = 0 // halted or faulted; never scheduled again
	StateWaitIRQ  Word = 2 // blocked until an owned device interrupt pends
)

// Kernel service (TRAP) codes. Regime programs invoke these with the TRAP
// instruction; arguments and results are passed in registers.
const (
	// TrapSwap yields the CPU to the next runnable regime.
	TrapSwap Word = 0
	// TrapSend sends R1 on channel R0; R0 := 1 on success, 0 if the
	// channel is full or not writable by this regime.
	TrapSend Word = 1
	// TrapRecv receives from channel R0 into R1; R0 := 1 on success, 0 if
	// empty or not readable by this regime.
	TrapRecv Word = 2
	// TrapIRQOn opens the regime's virtual interrupt mask.
	TrapIRQOn Word = 3
	// TrapIRQOff masks the regime's virtual interrupts.
	TrapIRQOff Word = 4
	// TrapPoll sets R1 to the number of words available to receive
	// (if this regime reads channel R0) or the free space (if it writes
	// it); R0 := 1 if the channel is valid for this regime.
	TrapPoll Word = 5
	// TrapHalt stops the regime permanently and yields.
	TrapHalt Word = 6
	// TrapWaitIRQ blocks the regime until one of its devices interrupts.
	TrapWaitIRQ Word = 7
	// TrapID sets R0 to the calling regime's index (regimes may know who
	// they are; they may not know who else exists).
	TrapID Word = 8
)

// Regime virtual address space conventions.
const (
	// RegimeVecBase is the virtual address of the regime's interrupt
	// vector table: word RegimeVecBase+2*j holds the handler address for
	// owned device j.
	RegimeVecBase Word = 0x0010

	// DeviceSegBase is the first virtual segment used for owned devices:
	// owned device j appears at virtual address (DeviceSegBase+j)<<12.
	DeviceSegBase = 8

	// MaxPartitionSegs caps a partition at 8 segments (32K words) so that
	// device segments never collide with memory segments.
	MaxPartitionSegs = 8
)

// DeviceVirtBase returns the virtual base address of owned device j.
func DeviceVirtBase(j int) Word {
	return Word(DeviceSegBase+j) << 12
}

// Prelude is an assembler prelude defining the kernel ABI for regime
// programs; prepend it to program source. Its service lines are rendered
// from the services table.
var Prelude = prelude()

func prelude() string {
	var b strings.Builder
	b.WriteString("\n")
	for code, s := range services {
		fmt.Fprintf(&b, "\t.equ %-8s%d\n", s.Name+",", code)
	}
	b.WriteString(`	.equ VECBASE, 0x0010
	.equ DEV0, 0x8000
	.equ DEV1, 0x9000
	.equ DEV2, 0xA000
	.equ DEV3, 0xB000
`)
	return b.String()
}

func saveBase(i int) Word { return KData + kdSaves + Word(i)*saveStride }

// The exported save-area geometry below exists for tools that reason about
// the kernel's memory layout from outside (package staticflow models the
// context-switch sequence over these physical addresses). The kernel itself
// keeps using the unexported constants.

// SaveBase returns the physical base address of regime i's register save
// area.
func SaveBase(i int) Word { return saveBase(i) }

// Save-area slot offsets and stride, relative to SaveBase(i).
const (
	SaveOffPSW     = savePSW     // saved processor status word
	SaveOffPending = savePending // pending-interrupt bitmask
	SaveAreaStride = saveStride
)

// ScratchAddr returns the physical address of the kernel scratch word — the
// word the SharedScratch leak maps into every regime's address space.
func ScratchAddr() Word { return KData + kdScratch }

// SchedCurrentAddr returns the physical address of the kernel word that
// records which regime holds the CPU — the scheduling variable the paper's
// high-level SWAP specification is allowed to touch.
func SchedCurrentAddr() Word { return KData + kdCurrent }

// ChannelAreaBase returns the physical address where channel buffers begin
// for a system of n regimes (header + buffers follow per channel).
func ChannelAreaBase(n int) Word { return KData + kdSaves + Word(n)*saveStride }
