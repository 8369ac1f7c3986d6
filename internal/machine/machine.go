package machine

import (
	"fmt"

	"repro/internal/obs"
)

// Machine is one SM11 computer: CPU, RAM, MMU, and attached devices.
// All mutation happens through Step (and the explicit load/poke helpers used
// by bootstrap code), so a Machine is a deterministic state machine: given
// equal Snapshots and equal device stimuli, two Machines evolve identically.
// That determinism is what the separability checker (package separability)
// relies on.
type Machine struct {
	ramWords int
	ram      []Word

	cpu

	devices []Device
	devBase []Word
	devVec  []Word

	// Delta-snapshot write-barrier state (see delta.go). dirtyMark/dirtyEpoch
	// implement O(1)-reset first-touch dedup for the active delta's undo log.
	delta      *Delta
	dirtyMark  []uint32
	dirtyEpoch uint32

	cycles uint64

	tracer func(TraceEntry)
	// events receives typed device-phase observations (obs.EvIRQRaise when
	// a device's interrupt line goes pending during TickDevices). Like
	// tracer it lives outside the modelled state: Snapshot/Restore ignore
	// it and no Φ rendering consults it.
	events obs.Tracer

	// Fault is set when the machine halts abnormally (kernel-mode bus
	// error, double fault, illegal opcode in kernel mode).
	Fault error
}

// cpu is the CPU and MMU block of the modelled state. It is one value so
// that every checkpoint path (Snapshot, Restore, the delta checkpoint,
// Reset) copies it whole; wire.go is the only other place that lists its
// fields, and TestCPUBlockRoundTrip guards that list.
type cpu struct {
	regs  [8]Word // R0..R5, SP (current mode's), PC
	altSP Word    // the inactive mode's stack pointer
	psw   Word

	mmu mmu

	halted   bool
	waiting  bool
	trapCode Word // code field of the most recent TRAP instruction
}

// DefaultRAMWords is the standard RAM size: everything below the I/O page.
const DefaultRAMWords = int(IOBase)

// New creates a machine with ramWords words of RAM (at most IOBase).
func New(ramWords int) *Machine {
	if ramWords <= 0 || ramWords > int(IOBase) {
		ramWords = DefaultRAMWords
	}
	m := &Machine{
		ramWords: ramWords,
		ram:      make([]Word, ramWords),
	}
	m.Reset()
	return m
}

// Reset returns the CPU, MMU and all devices to their power-on state.
// RAM contents are preserved (use ClearRAM for a cold boot).
func (m *Machine) Reset() {
	m.cpu = cpu{psw: WithPriority(0, 7)} // kernel mode, all interrupts masked
	m.cycles = 0
	m.Fault = nil
	for i, d := range m.devices {
		m.touchDevice(i)
		d.Reset()
	}
}

// ClearRAM zeroes all of RAM.
func (m *Machine) ClearRAM() {
	if m.delta != nil {
		for i := range m.ram {
			if m.ram[i] != 0 {
				m.writeRAM(Word(i), 0)
			}
		}
		return
	}
	for i := range m.ram {
		m.ram[i] = 0
	}
}

// Attach adds a device to the bus, assigning it a register block and an
// interrupt vector. Devices must be attached before the machine runs and
// in a deterministic order.
func (m *Machine) Attach(d Device) Handle {
	base := IODevBase
	if n := len(m.devices); n > 0 {
		prev := m.devBase[n-1]
		sz := Word(m.devices[n-1].Size())
		base = (prev + sz + 7) &^ 7
	}
	vec := VecDevBase + Word(len(m.devices))*2
	m.devices = append(m.devices, d)
	m.devBase = append(m.devBase, base)
	m.devVec = append(m.devVec, vec)
	d.Reset()
	return Handle{Base: base, Vector: vec}
}

// Devices returns the attached devices in bus order.
func (m *Machine) Devices() []Device { return m.devices }

// DeviceHandle returns the bus handle for an attached device.
func (m *Machine) DeviceHandle(d Device) (Handle, bool) {
	for i, dd := range m.devices {
		if dd == d {
			return Handle{Base: m.devBase[i], Vector: m.devVec[i]}, true
		}
	}
	return Handle{}, false
}

// --- accessors used by supervisors (the separation kernel) and tests ---

// Reg returns general register n of the current mode.
func (m *Machine) Reg(n int) Word { return m.regs[n&7] }

// SetReg sets general register n.
func (m *Machine) SetReg(n int, v Word) { m.regs[n&7] = v }

// AltSP returns the stack pointer of the inactive mode.
func (m *Machine) AltSP() Word { return m.altSP }

// SetAltSP sets the inactive mode's stack pointer.
func (m *Machine) SetAltSP(v Word) { m.altSP = v }

// PC returns the program counter.
func (m *Machine) PC() Word { return m.regs[RegPC] }

// SetPC sets the program counter.
func (m *Machine) SetPC(v Word) { m.regs[RegPC] = v }

// PSW returns the processor status word.
func (m *Machine) PSW() Word { return m.psw }

// SetPSW sets the PSW directly, swapping stack-pointer banks if the mode
// bit changes. This is a supervisor back door used by Go-level kernels.
func (m *Machine) SetPSW(v Word) {
	if IsUser(m.psw) != IsUser(v) {
		m.regs[RegSP], m.altSP = m.altSP, m.regs[RegSP]
	}
	m.psw = v
}

// TrapCode returns the 10-bit code of the most recent TRAP instruction.
func (m *Machine) TrapCode() Word { return m.trapCode }

// Halted reports whether the CPU has stopped.
func (m *Machine) Halted() bool { return m.halted }

// ClearWaiting releases a WAIT state; supervisors use it when they switch
// contexts by writing machine state directly rather than via an interrupt.
func (m *Machine) ClearWaiting() { m.waiting = false }

// Cycles returns the number of Steps executed since Reset.
func (m *Machine) Cycles() uint64 { return m.cycles }

// RAMWords returns the installed RAM size in words.
func (m *Machine) RAMWords() int { return m.ramWords }

// TCStats and TranslationStats are what remains of the removed basic-block
// translation cache: TranslationStats always returns the zero value. They
// are kept for bench/, which compiles against them; drop them together with
// their uses there.
type TCStats struct {
	Hits, Misses, Invalidations, Fallbacks uint64
}

// TranslationStats returns the zero TCStats (see TCStats).
func (m *Machine) TranslationStats() TCStats { return TCStats{} }

// MMU register access for supervisors.

// SetSeg programs user segment i.
func (m *Machine) SetSeg(i int, base, ctl Word) {
	m.mmu.Base[i&15] = base
	m.mmu.Ctl[i&15] = ctl
}

// MMUAbort returns the latched abort reason and virtual address.
func (m *Machine) MMUAbort() (reason, vaddr Word) {
	return m.mmu.AbortReason, m.mmu.AbortVaddr
}

// ReadPhys reads physical address a (RAM or I/O) without translation.
func (m *Machine) ReadPhys(a Word) Word {
	v, _ := m.physRead(a)
	return v
}

// RAMSlice returns RAM words [base, base+n) as a slice aliasing machine
// memory, for read-only bulk access (Φ rendering). Callers must not write
// through it: writes would bypass the delta write barrier. It panics when
// the range extends past RAM.
func (m *Machine) RAMSlice(base, n Word) []Word {
	return m.ram[base : int(base)+int(n) : int(base)+int(n)]
}

// WritePhys writes physical address a without translation.
func (m *Machine) WritePhys(a Word, v Word) {
	m.physWrite(a, v)
}

// LoadImage copies words into RAM starting at physical address org.
func (m *Machine) LoadImage(org Word, words []Word) error {
	if int(org)+len(words) > m.ramWords {
		return fmt.Errorf("machine: image %d words at %#x exceeds RAM", len(words), org)
	}
	if m.delta != nil {
		for i, w := range words {
			m.writeRAM(org+Word(i), w)
		}
		return nil
	}
	copy(m.ram[org:], words)
	return nil
}

// SetVector installs [pc, psw] at trap/interrupt vector vec.
func (m *Machine) SetVector(vec, pc, psw Word) {
	m.writeRAM(vec, pc)
	m.writeRAM(vec+1, psw)
}

// --- physical memory and I/O dispatch ---

func (m *Machine) physRead(a Word) (Word, bool) {
	if int(a) < m.ramWords {
		return m.ram[a], true
	}
	if a >= IOBase {
		return m.ioRead(a)
	}
	return 0, false
}

func (m *Machine) physWrite(a Word, v Word) bool {
	if int(a) < m.ramWords {
		m.writeRAM(a, v)
		return true
	}
	if a >= IOBase {
		return m.ioWrite(a, v)
	}
	return false
}

func (m *Machine) ioRead(a Word) (Word, bool) {
	switch {
	case a >= IOSegBase && a < IOSegBase+NumSegments:
		return m.mmu.Base[a-IOSegBase], true
	case a >= IOSegCtl && a < IOSegCtl+NumSegments:
		return m.mmu.Ctl[a-IOSegCtl], true
	case a == IOMMUStat:
		return m.mmu.AbortReason, true
	case a == IOMMUAddr:
		return m.mmu.AbortVaddr, true
	}
	for i, d := range m.devices {
		base := m.devBase[i]
		if a >= base && int(a-base) < d.Size() {
			// Some device registers have read side effects (a TTY read
			// consumes the pending character), so a register read counts as
			// a device mutation for delta tracking.
			m.touchDevice(i)
			return d.ReadReg(int(a - base)), true
		}
	}
	return 0, false
}

func (m *Machine) ioWrite(a Word, v Word) bool {
	switch {
	case a >= IOSegBase && a < IOSegBase+NumSegments:
		m.mmu.Base[a-IOSegBase] = v
		return true
	case a >= IOSegCtl && a < IOSegCtl+NumSegments:
		m.mmu.Ctl[a-IOSegCtl] = v
		return true
	case a == IOMMUStat:
		m.mmu.AbortReason = v
		return true
	case a == IOMMUAddr:
		m.mmu.AbortVaddr = v
		return true
	}
	for i, d := range m.devices {
		base := m.devBase[i]
		if a >= base && int(a-base) < d.Size() {
			m.touchDevice(i)
			d.WriteReg(int(a-base), v)
			return true
		}
	}
	return false
}

// --- virtual memory access (instruction's view) ---

// memRead reads through the MMU in user mode, physically in kernel mode.
// A false result means a fault was raised (trap already dispatched in user
// mode; machine halted in kernel mode).
func (m *Machine) memRead(vaddr Word) (Word, bool) {
	if IsUser(m.psw) {
		pa, ok := m.mmu.translate(vaddr, false)
		if !ok {
			m.trap(VecMMU)
			return 0, false
		}
		v, ok := m.physRead(pa)
		if !ok {
			m.mmu.AbortReason, m.mmu.AbortVaddr = MMUBusTimeout, vaddr
			m.trap(VecMMU)
			return 0, false
		}
		return v, true
	}
	v, ok := m.physRead(vaddr)
	if !ok {
		m.machineCheck(fmt.Errorf("kernel-mode bus timeout reading %#x", vaddr))
		return 0, false
	}
	return v, true
}

func (m *Machine) memWrite(vaddr Word, v Word) bool {
	if IsUser(m.psw) {
		pa, ok := m.mmu.translate(vaddr, true)
		if !ok {
			m.trap(VecMMU)
			return false
		}
		if !m.physWrite(pa, v) {
			m.mmu.AbortReason, m.mmu.AbortVaddr = MMUBusTimeout, vaddr
			m.trap(VecMMU)
			return false
		}
		return true
	}
	if !m.physWrite(vaddr, v) {
		m.machineCheck(fmt.Errorf("kernel-mode bus timeout writing %#x", vaddr))
		return false
	}
	return true
}

// machineCheck halts the machine with a fault; kernel-mode errors are bugs
// in the supervisor, not conditions to limp past.
func (m *Machine) machineCheck(err error) {
	m.halted = true
	if m.Fault == nil {
		m.Fault = err
	}
}

// --- interrupt and trap sequencing ---

// trap performs the hardware trap sequence: switch to kernel mode, push the
// old PSW and PC on the kernel stack, and load PC/PSW from the vector.
func (m *Machine) trap(vec Word) {
	oldPSW, oldPC := m.psw, m.regs[RegPC]
	if IsUser(m.psw) {
		// Enter kernel mode: bank-switch the stack pointer.
		m.regs[RegSP], m.altSP = m.altSP, m.regs[RegSP]
		m.psw &^= PSWUser
	}
	push := func(v Word) bool {
		m.regs[RegSP]--
		if int(m.regs[RegSP]) >= m.ramWords {
			m.machineCheck(fmt.Errorf("trap stack push outside RAM at %#x", m.regs[RegSP]))
			return false
		}
		m.writeRAM(m.regs[RegSP], v)
		return true
	}
	if !push(oldPSW) || !push(oldPC) {
		return
	}
	if int(vec)+1 >= m.ramWords {
		m.machineCheck(fmt.Errorf("trap vector %#x outside RAM", vec))
		return
	}
	newPC, newPSW := m.ram[vec], m.ram[vec+1]
	m.regs[RegPC] = newPC
	// The new PSW from the vector always selects kernel mode.
	m.psw = newPSW &^ PSWUser
	m.waiting = false
}

// highestPending returns the index of the pending device with the highest
// priority exceeding the current PSW priority.
func (m *Machine) highestPending() (int, bool) {
	best, bestPrio := -1, PSWPriority(m.psw)
	for i, d := range m.devices {
		if d.Pending() && d.Priority() > bestPrio {
			best, bestPrio = i, d.Priority()
		}
	}
	return best, best >= 0
}

// TickDevices advances every attached device by one cycle. In the model of
// the paper's Appendix this is (together with input injection) the INPUT
// phase of a time step: all I/O device activity happens here.
func (m *Machine) TickDevices() {
	if m.events == nil {
		for i, d := range m.devices {
			m.touchDevice(i)
			d.Tick()
		}
		return
	}
	for i, d := range m.devices {
		was := d.Pending()
		m.touchDevice(i)
		d.Tick()
		if !was && d.Pending() {
			m.events.Emit(obs.Event{Cycle: m.cycles, Kind: obs.EvIRQRaise,
				Regime: -1, Arg: i, Name: d.Name()})
		}
	}
}

// SetEventTracer installs (or, with nil, removes) an observer for the
// machine's device phase: it receives an obs.EvIRQRaise event whenever a
// device tick raises that device's interrupt line. The hook is
// observational only — Pending() is side-effect-free — and costs one nil
// check per TickDevices when disabled.
func (m *Machine) SetEventTracer(t obs.Tracer) { m.events = t }

// PendingDevice returns the index of the device whose interrupt the next
// StepCPU would dispatch, or ok=false if none.
func (m *Machine) PendingDevice() (int, bool) {
	return m.highestPending()
}

// StepCPU performs the CPU half of a cycle: dispatch a pending interrupt if
// one outranks the current priority, otherwise execute one instruction.
func (m *Machine) StepCPU() {
	if m.halted {
		return
	}
	m.stepCPU()
}

// stepCPU is StepCPU without the halted guard, for callers (Step, Run)
// that have already checked it this cycle.
func (m *Machine) stepCPU() {
	m.cycles++
	// The len guard saves a call per step on device-less machines; the
	// scan itself is unavoidable with devices attached.
	if len(m.devices) > 0 {
		if i, ok := m.highestPending(); ok {
			m.touchDevice(i)
			m.devices[i].Ack()
			m.trap(m.devVec[i])
			return
		}
	}
	if m.waiting {
		return
	}
	if m.tracer != nil {
		m.traceCurrent()
	}
	m.execInstr()
}

// Step advances the machine by one full cycle: devices tick, then either an
// interrupt is dispatched or one instruction executes.
func (m *Machine) Step() {
	if m.halted {
		return
	}
	if len(m.devices) > 0 {
		m.TickDevices()
	}
	m.stepCPU()
}

// Run steps until the machine halts or maxSteps is reached; it returns the
// number of steps taken.
func (m *Machine) Run(maxSteps int) int {
	n := 0
	for !m.halted && n < maxSteps {
		if len(m.devices) > 0 {
			m.TickDevices()
		}
		m.stepCPU()
		n++
	}
	return n
}

// --- instruction execution ---

// fetch reads the word at PC and advances PC.
func (m *Machine) fetch() (Word, bool) {
	w, ok := m.memRead(m.regs[RegPC])
	if ok {
		m.regs[RegPC]++
	}
	return w, ok
}

// operand describes a resolved destination: either a register or a memory
// address in the current mode's address space.
type operand struct {
	isReg bool
	reg   int
	addr  Word
}

func (m *Machine) readSrc(spec Word) (Word, bool) {
	mode, reg := SpecMode(spec), SpecReg(spec)
	switch mode {
	case ModeReg:
		return m.regs[reg], true
	case ModeIndirect:
		return m.memRead(m.regs[reg])
	case ModeIndexed:
		ext, ok := m.fetch()
		if !ok {
			return 0, false
		}
		return m.memRead(m.regs[reg] + ext)
	default: // ModeExtended
		ext, ok := m.fetch()
		if !ok {
			return 0, false
		}
		switch reg {
		case RegPC:
			return ext, true // immediate
		case RegSP:
			return m.memRead(ext) // absolute
		}
		m.trap(VecIllegal)
		return 0, false
	}
}

func (m *Machine) resolveDst(spec Word) (operand, bool) {
	mode, reg := SpecMode(spec), SpecReg(spec)
	switch mode {
	case ModeReg:
		return operand{isReg: true, reg: reg}, true
	case ModeIndirect:
		return operand{addr: m.regs[reg]}, true
	case ModeIndexed:
		ext, ok := m.fetch()
		if !ok {
			return operand{}, false
		}
		return operand{addr: m.regs[reg] + ext}, true
	default: // ModeExtended
		ext, ok := m.fetch()
		if !ok {
			return operand{}, false
		}
		if reg == RegSP {
			return operand{addr: ext}, true // absolute
		}
		m.trap(VecIllegal)
		return operand{}, false
	}
}

func (m *Machine) readOperand(o operand) (Word, bool) {
	if o.isReg {
		return m.regs[o.reg], true
	}
	return m.memRead(o.addr)
}

func (m *Machine) writeOperand(o operand, v Word) bool {
	if o.isReg {
		m.regs[o.reg] = v
		return true
	}
	return m.memWrite(o.addr, v)
}

func (m *Machine) setCC(cc Word) {
	m.psw = m.psw&^pswCCMask | cc&pswCCMask
}

func (m *Machine) push(v Word) bool {
	m.regs[RegSP]--
	return m.memWrite(m.regs[RegSP], v)
}

func (m *Machine) pop() (Word, bool) {
	v, ok := m.memRead(m.regs[RegSP])
	if ok {
		m.regs[RegSP]++
	}
	return v, ok
}

// privileged raises an illegal-instruction trap when executed in user mode
// and reports whether execution may proceed.
func (m *Machine) privileged() bool {
	if IsUser(m.psw) {
		m.trap(VecIllegal)
		return false
	}
	return true
}

func (m *Machine) execInstr() {
	w, ok := m.fetch()
	if !ok {
		return
	}
	op := DecodeOp(w)

	if IsBranch(op) {
		m.execBranch(op, w)
		return
	}

	switch op {
	case OpHALT:
		if m.privileged() {
			m.halted = true
		}
	case OpNOP:
	case OpWAIT:
		if m.privileged() {
			m.waiting = true
		}
	case OpTRAP:
		m.trapCode = w & 0x3ff
		m.trap(VecTRAP)
	case OpRTI:
		if !m.privileged() {
			return
		}
		pc, ok := m.pop()
		if !ok {
			return
		}
		psw, ok := m.pop()
		if !ok {
			return
		}
		m.regs[RegPC] = pc
		if IsUser(psw) && !IsUser(m.psw) {
			m.regs[RegSP], m.altSP = m.altSP, m.regs[RegSP]
		}
		m.psw = psw
	case OpRTS:
		pc, ok := m.pop()
		if !ok {
			return
		}
		m.regs[RegPC] = pc
	case OpMOV, OpADD, OpSUB, OpCMP, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpMUL:
		m.execTwoOp(op, w)
	case OpNOT, OpNEG:
		dst, ok := m.resolveDst(w & 0x1f)
		if !ok {
			return
		}
		v, ok := m.readOperand(dst)
		if !ok {
			return
		}
		r, cc := aluUnary(op, v)
		if m.writeOperand(dst, r) {
			m.setCC(cc)
		}
	case OpJMP:
		dst, ok := m.resolveDst(w & 0x1f)
		if !ok {
			return
		}
		if dst.isReg {
			m.regs[RegPC] = m.regs[dst.reg]
		} else {
			m.regs[RegPC] = dst.addr
		}
	case OpJSR:
		dst, ok := m.resolveDst(w & 0x1f)
		if !ok {
			return
		}
		if !m.push(m.regs[RegPC]) {
			return
		}
		if dst.isReg {
			m.regs[RegPC] = m.regs[dst.reg]
		} else {
			m.regs[RegPC] = dst.addr
		}
	case OpPUSH:
		v, ok := m.readSrc(Word((w >> 5) & 0x1f))
		if !ok {
			return
		}
		m.push(v)
	case OpPOP:
		dst, ok := m.resolveDst(w & 0x1f)
		if !ok {
			return
		}
		v, ok := m.pop()
		if !ok {
			return
		}
		m.writeOperand(dst, v)
	case OpMTPS:
		v, ok := m.readSrc(Word((w >> 5) & 0x1f))
		if !ok {
			return
		}
		if IsUser(m.psw) {
			// User mode may only set condition codes.
			m.setCC(v)
			return
		}
		if IsUser(v) && !IsUser(m.psw) {
			m.regs[RegSP], m.altSP = m.altSP, m.regs[RegSP]
		}
		m.psw = v
	case OpMFPS:
		dst, ok := m.resolveDst(w & 0x1f)
		if !ok {
			return
		}
		m.writeOperand(dst, m.psw)
	default:
		m.trap(VecIllegal)
	}
}

func (m *Machine) execBranch(op, w Word) {
	n := m.psw&FlagN != 0
	z := m.psw&FlagZ != 0
	v := m.psw&FlagV != 0
	c := m.psw&FlagC != 0
	var take bool
	switch op {
	case OpBR:
		take = true
	case OpBEQ:
		take = z
	case OpBNE:
		take = !z
	case OpBLT:
		take = n != v
	case OpBGE:
		take = n == v
	case OpBGT:
		take = !z && n == v
	case OpBLE:
		take = z || n != v
	case OpBCS:
		take = c
	case OpBCC:
		take = !c
	case OpBMI:
		take = n
	case OpBPL:
		take = !n
	}
	if take {
		m.regs[RegPC] += Word(BranchOffset(w))
	}
}

func (m *Machine) execTwoOp(op, w Word) {
	src, ok := m.readSrc(Word((w >> 5) & 0x1f))
	if !ok {
		return
	}
	dst, ok := m.resolveDst(w & 0x1f)
	if !ok {
		return
	}
	if op == OpMOV {
		if m.writeOperand(dst, src) {
			m.setCC(ccNZ(src) | m.psw&FlagC)
		}
		return
	}

	dv, ok := m.readOperand(dst)
	if !ok {
		return
	}
	r, cc, writeBack := alu2(op, src, dv, m.psw&FlagC)
	if writeBack {
		if !m.writeOperand(dst, r) {
			return
		}
	}
	m.setCC(cc)
}

// alu2 computes the result and condition codes of a two-operand ALU
// instruction (everything but MOV). carry is the pre-instruction C flag,
// preserved by the logical ops. writeBack is false for CMP.
func alu2(op, src, dv, carry Word) (r, cc Word, writeBack bool) {
	writeBack = true
	switch op {
	case OpADD:
		sum := uint32(dv) + uint32(src)
		r = Word(sum)
		cc = ccNZ(r)
		if sum > 0xffff {
			cc |= FlagC
		}
		if (dv^r)&(src^r)&0x8000 != 0 {
			cc |= FlagV
		}
	case OpSUB:
		r = dv - src
		cc = ccNZ(r)
		if src > dv {
			cc |= FlagC
		}
		if (dv^src)&(dv^r)&0x8000 != 0 {
			cc |= FlagV
		}
	case OpCMP:
		// Flags from src - dst (PDP-11 convention).
		r = src - dv
		cc = ccNZ(r)
		if dv > src {
			cc |= FlagC
		}
		if (src^dv)&(src^r)&0x8000 != 0 {
			cc |= FlagV
		}
		writeBack = false
	case OpAND:
		r = dv & src
		cc = ccNZ(r) | carry
	case OpOR:
		r = dv | src
		cc = ccNZ(r) | carry
	case OpXOR:
		r = dv ^ src
		cc = ccNZ(r) | carry
	case OpSHL:
		n := src & 15
		r = dv << n
		cc = ccNZ(r)
		if n > 0 && dv&(1<<(16-n)) != 0 {
			cc |= FlagC
		}
	case OpSHR:
		n := src & 15
		r = dv >> n
		cc = ccNZ(r)
		if n > 0 && dv&(1<<(n-1)) != 0 {
			cc |= FlagC
		}
	case OpMUL:
		r = Word(uint32(dv) * uint32(src))
		cc = ccNZ(r)
	}
	return r, cc, writeBack
}

// aluUnary computes the result and condition codes of NOT/NEG.
func aluUnary(op, v Word) (r, cc Word) {
	if op == OpNOT {
		r = ^v
		return r, ccNZ(r)
	}
	r = -v
	cc = ccNZ(r)
	if r != 0 {
		cc |= FlagC
	}
	if r == 0x8000 {
		cc |= FlagV
	}
	return r, cc
}
