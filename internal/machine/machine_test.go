package machine_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// runProgram assembles src, loads it at its .org, points the PC at the
// given entry symbol (or the image origin) and runs until HALT.
func runProgram(t *testing.T, src string, maxSteps int) *machine.Machine {
	t.Helper()
	m := machine.New(0x2000)
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.LoadImage(im.Org, im.Words); err != nil {
		t.Fatalf("load: %v", err)
	}
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	m.SetPSW(machine.WithPriority(0, 7))
	m.Run(maxSteps)
	if !m.Halted() {
		t.Fatalf("program did not halt in %d steps (PC=%#x)", maxSteps, m.PC())
	}
	if m.Fault != nil {
		t.Fatalf("machine fault: %v", m.Fault)
	}
	return m
}

func TestMOVImmediateAndRegisters(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0x1234, R0
		MOV R0, R1
		HALT
	`, 100)
	if got := m.Reg(0); got != 0x1234 {
		t.Errorf("R0 = %#x, want 0x1234", got)
	}
	if got := m.Reg(1); got != 0x1234 {
		t.Errorf("R1 = %#x, want 0x1234", got)
	}
}

func TestArithmetic(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #7, R0
		ADD #5, R0      ; R0 = 12
		MOV #3, R1
		SUB R1, R0      ; R0 = 9
		MOV #6, R2
		MUL R0, R2      ; R2 = 54
		HALT
	`, 100)
	if got := m.Reg(0); got != 9 {
		t.Errorf("R0 = %d, want 9", got)
	}
	if got := m.Reg(2); got != 54 {
		t.Errorf("R2 = %d, want 54", got)
	}
}

func TestAddCarryAndOverflowFlags(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0xFFFF, R0
		ADD #1, R0
		MFPS R1          ; capture flags: Z and C expected
		MOV #0x7FFF, R2
		ADD #1, R2
		MFPS R3          ; N and V expected
		HALT
	`, 100)
	f1 := m.Reg(1)
	if f1&machine.FlagZ == 0 || f1&machine.FlagC == 0 {
		t.Errorf("0xFFFF+1 flags = %#x, want Z and C set", f1)
	}
	f3 := m.Reg(3)
	if f3&machine.FlagN == 0 || f3&machine.FlagV == 0 {
		t.Errorf("0x7FFF+1 flags = %#x, want N and V set", f3)
	}
}

func TestLogicAndShifts(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0xF0F0, R0
		AND #0xFF00, R0  ; 0xF000
		MOV #0x000F, R1
		OR  #0x00F0, R1  ; 0x00FF
		MOV #0xAAAA, R2
		XOR #0xFFFF, R2  ; 0x5555
		MOV #1, R3
		SHL #4, R3       ; 0x0010
		MOV #0x8000, R4
		SHR #15, R4      ; 0x0001
		MOV #0x00FF, R5
		NOT R5           ; 0xFF00
		HALT
	`, 100)
	want := map[int]machine.Word{0: 0xF000, 1: 0x00FF, 2: 0x5555, 3: 0x0010, 4: 0x0001, 5: 0xFF00}
	for r, w := range want {
		if got := m.Reg(r); got != w {
			t.Errorf("R%d = %#x, want %#x", r, got, w)
		}
	}
}

func TestBranchLoop(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0, R0
		MOV #10, R1
	loop:
		ADD #1, R0
		SUB #1, R1
		BNE loop
		HALT
	`, 200)
	if got := m.Reg(0); got != 10 {
		t.Errorf("loop counted R0 = %d, want 10", got)
	}
}

func TestCompareBranches(t *testing.T) {
	// CMP src,dst sets flags from src-dst: CMP #5, R0 with R0=5 → Z.
	m := runProgram(t, `
		.org 0x100
		MOV #5, R0
		CMP #5, R0
		BNE fail
		MOV #3, R1
		CMP #7, R1      ; 7-3 > 0 → BGT taken
		BLE fail
		MOV #1, R5      ; success marker
		HALT
	fail:
		MOV #0xDEAD, R5
		HALT
	`, 100)
	if got := m.Reg(5); got != 1 {
		t.Errorf("branch logic failed: R5 = %#x", got)
	}
}

func TestMemoryAddressing(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0xBEEF, @0x500   ; absolute store
		MOV @0x500, R0        ; absolute load
		MOV #0x500, R1
		MOV (R1), R2          ; indirect load
		MOV #0x4F0, R3
		MOV 0x10(R3), R4      ; indexed load (0x4F0+0x10 = 0x500)
		MOV #0x1111, 2(R1)    ; indexed store at 0x502
		MOV @0x502, R5
		HALT
	`, 100)
	for r, w := range map[int]machine.Word{0: 0xBEEF, 2: 0xBEEF, 4: 0xBEEF, 5: 0x1111} {
		if got := m.Reg(r); got != w {
			t.Errorf("R%d = %#x, want %#x", r, got, w)
		}
	}
	if got := m.ReadPhys(0x500); got != 0xBEEF {
		t.Errorf("mem[0x500] = %#x, want 0xBEEF", got)
	}
}

func TestStackPushPopJSR(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0xAA, R0
		PUSH R0
		MOV #0xBB, R0
		PUSH R0
		POP R1           ; 0xBB
		POP R2           ; 0xAA
		JSR sub
		MOV #2, R4
		HALT
	sub:
		MOV #1, R3
		RTS
	`, 100)
	for r, w := range map[int]machine.Word{1: 0xBB, 2: 0xAA, 3: 1, 4: 2} {
		if got := m.Reg(r); got != w {
			t.Errorf("R%d = %#x, want %#x", r, got, w)
		}
	}
	if got := m.Reg(machine.RegSP); got != 0x1000 {
		t.Errorf("SP = %#x, want balanced 0x1000", got)
	}
}

func TestTrapDispatchAndRTI(t *testing.T) {
	// A TRAP handler that records the trap code and resumes.
	m := runProgram(t, `
		.org 0x100
		MOV #handler, @0x0C   ; VecTRAP PC
		MOV #0x00E0, @0x0D    ; VecTRAP PSW: kernel, priority 7
		TRAP #42
		MOV #1, R2            ; executed after RTI
		HALT
	handler:
		MOV #0x99, R1
		RTI
	`, 100)
	if got := m.Reg(1); got != 0x99 {
		t.Errorf("handler did not run: R1 = %#x", got)
	}
	if got := m.Reg(2); got != 1 {
		t.Errorf("RTI did not resume: R2 = %#x", got)
	}
	if got := m.TrapCode(); got != 42 {
		t.Errorf("trap code = %d, want 42", got)
	}
}

func TestUserModeCannotHalt(t *testing.T) {
	// Enter user mode via RTI; the user HALT must trap to VecIllegal.
	m := runProgram(t, `
		.org 0x100
		MOV #caught, @0x04    ; VecIllegal PC
		MOV #0x00E0, @0x05    ; kernel, priority 7
		; map user segment 0: base 0x400, full 4K, RW
		MOV #0x400, @0xF000
		MOV #0x5000, @0xF010  ; ctl: full-segment bit | RW<<13
		; build user entry: push PSW (user), push PC (0), RTI
		MOV #0x8000, R0       ; user mode PSW
		PUSH R0
		MOV #0, R0            ; user virtual PC 0
		PUSH R0
		; plant "HALT" at user address 0 = physical 0x400
		MOV #0, @0x400        ; opcode 0 = HALT
		RTI
	caught:
		MOV #0x77, R3
		HALT
	`, 200)
	if got := m.Reg(3); got != 0x77 {
		t.Errorf("user HALT was not trapped: R3 = %#x", got)
	}
}

func TestMMUProtectionAbort(t *testing.T) {
	// User code touching an unmapped segment must abort to VecMMU.
	m := runProgram(t, `
		.org 0x100
		MOV #abort, @0x08     ; VecMMU PC
		MOV #0x00E0, @0x09
		MOV #0x400, @0xF000   ; segment 0 mapped
		MOV #0x5000, @0xF010
		; segment 1 left unmapped (AccessNone)
		; user program at phys 0x400: MOV @0x1000, R0 (virtual seg 1)
		MOV #0x0BC0, @0x400   ; MOV @abs, R0: op MOV(2)<<10|src ext SP|dst R0
		MOV #0x1000, @0x401   ; the absolute address
		MOV #0x8000, R0
		PUSH R0
		MOV #0, R0
		PUSH R0
		RTI
	abort:
		MOV @0xF020, R4       ; MMU abort reason
		MOV @0xF021, R5       ; abort vaddr
		HALT
	`, 200)
	if got := m.Reg(4); got != machine.MMUNoAccess {
		t.Errorf("abort reason = %d, want MMUNoAccess", got)
	}
	if got := m.Reg(5); got != 0x1000 {
		t.Errorf("abort vaddr = %#x, want 0x1000", got)
	}
}

func TestReadOnlySegmentWriteAborts(t *testing.T) {
	m := machine.New(0x2000)
	m.SetSeg(0, 0x400, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRO))
	m.SetVector(machine.VecMMU, 0x200, machine.WithPriority(0, 7))
	m.WritePhys(0x200, machine.Enc2(machine.OpHALT, 0, 0))
	// User program at phys 0x400 writes to its own segment.
	prog := asm.MustAssemble(`
		.org 0
		MOV #1, @0x10
		HALT
	`)
	for i, w := range prog.Words {
		m.WritePhys(0x400+machine.Word(i), w)
	}
	m.SetPSW(machine.PSWUser)
	m.SetAltSP(0x1000) // kernel SP while user runs
	m.SetPC(0)
	m.Run(50)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if reason, vaddr := m.MMUAbort(); reason != machine.MMUReadOnly || vaddr != 0x10 {
		t.Errorf("abort = (%d, %#x), want (MMUReadOnly, 0x10)", reason, vaddr)
	}
}

func TestMMUTranslationRelocates(t *testing.T) {
	// Two different segment bases make the same virtual address reach
	// different physical words — the heart of partition isolation.
	m := machine.New(0x2000)
	m.WritePhys(0x800, 0x1111)
	m.WritePhys(0xA00, 0x2222)
	prog := asm.MustAssemble(`
		.org 0
		MOV @0x0, R0
		HALT
	`)
	run := func(base machine.Word) machine.Word {
		m.Reset()
		for i, w := range prog.Words {
			m.WritePhys(0x400+machine.Word(i), w)
		}
		m.SetSeg(0, base, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRW))
		m.SetSeg(1, 0, 0)
		// Map the code segment too: virtual seg 15 → phys 0x400.
		m.SetSeg(15, 0x400, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRO))
		m.SetVector(machine.VecIllegal, 0x300, machine.WithPriority(0, 7))
		m.WritePhys(0x300, machine.Enc2(machine.OpHALT, 0, 0))
		m.SetPSW(machine.PSWUser)
		m.SetAltSP(0x1000)
		m.SetPC(0xF000) // virtual: segment 15 offset 0
		m.Run(50)
		return m.Reg(0)
	}
	if got := run(0x800); got != 0x1111 {
		t.Errorf("base 0x800: R0 = %#x, want 0x1111", got)
	}
	if got := run(0xA00); got != 0x2222 {
		t.Errorf("base 0xA00: R0 = %#x, want 0x2222", got)
	}
}

func TestTTYOutputAndInput(t *testing.T) {
	m := machine.New(0x2000)
	tty := machine.NewTTY("tty0", 1)
	h := m.Attach(tty)
	src := `
		.org 0x100
		.equ RSTAT, 0xF040
		.equ RDATA, 0xF041
		.equ XDATA, 0xF043
	wait:
		MOV @RSTAT, R0
		AND #1, R0
		BEQ wait
		MOV @RDATA, R1      ; read the input byte
		MOV R1, @XDATA      ; echo it
		HALT
	`
	if h.Base != 0xF040 {
		t.Fatalf("tty base = %#x, want 0xF040", h.Base)
	}
	im := asm.MustAssemble(src)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	tty.InjectString("A")
	m.Run(200)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := tty.OutputString(); got != "A" {
		t.Errorf("echo output = %q, want %q", got, "A")
	}
}

func TestTTYInterrupt(t *testing.T) {
	m := machine.New(0x2000)
	tty := machine.NewTTY("tty0", 1)
	h := m.Attach(tty)
	src := `
		.org 0x100
		MOV #isr, @0x20        ; device vector 0 PC
		MOV #0x00E0, @0x21     ; kernel, priority 7 inside ISR
		MOV #0x40, @0xF040     ; enable receiver interrupts
		MTPS #0x0000           ; kernel mode, priority 0: open interrupts
	spin:
		BR spin
	isr:
		MOV @0xF041, R1        ; consume the byte
		HALT
	`
	_ = h
	im := asm.MustAssemble(src)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	tty.InjectString("Z")
	m.Run(500)
	if !m.Halted() {
		t.Fatal("interrupt never delivered")
	}
	if got := m.Reg(1); got != 'Z' {
		t.Errorf("ISR read %#x, want 'Z'", got)
	}
}

func TestInterruptPriorityMasking(t *testing.T) {
	m := machine.New(0x2000)
	tty := machine.NewTTY("tty0", 1) // priority 4
	m.Attach(tty)
	src := `
		.org 0x100
		MOV #isr, @0x20
		MOV #0x00E0, @0x21
		MOV #0x40, @0xF040    ; receiver IE
		MTPS #0x00E0          ; priority 7: interrupt must be held off
		MOV #0, R2
		ADD #1, R2
		ADD #1, R2
		ADD #1, R2
		MTPS #0x0000          ; open up; interrupt fires now
	spin:
		BR spin
	isr:
		MOV R2, R3            ; prove the adds ran before the ISR
		HALT
	`
	im := asm.MustAssemble(src)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	tty.InjectString("x")
	m.Run(500)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Reg(3); got != 3 {
		t.Errorf("interrupt was not masked: R3 = %d, want 3", got)
	}
}

func TestClockInterrupts(t *testing.T) {
	m := machine.New(0x2000)
	clk := machine.NewClock("clk", 10)
	m.Attach(clk)
	src := `
		.org 0x100
		MOV #isr, @0x20
		MOV #0x00E0, @0x21
		MOV #0x40, @0xF040   ; clock CTL: IE
		MOV #0, R0
		MTPS #0x0000
	spin:
		BR spin
	isr:
		ADD #1, R0
		CMP #3, R0
		BEQ done
		RTI
	done:
		HALT
	`
	im := asm.MustAssemble(src)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	m.Run(500)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Reg(0); got != 3 {
		t.Errorf("clock ticks counted = %d, want 3", got)
	}
}

func TestLinkTransfersBetweenMachines(t *testing.T) {
	sender := machine.New(0x1000)
	receiver := machine.New(0x1000)
	tx, rx := machine.NewLink("wire", 8)
	sender.Attach(tx)
	receiver.Attach(rx)

	sendProg := asm.MustAssemble(`
		.org 0x100
		MOV #0xCAFE, @0xF041   ; sending end DATA
		HALT
	`)
	recvProg := asm.MustAssemble(`
		.org 0x100
	wait:
		MOV @0xF040, R0        ; receiving end STAT
		AND #1, R0
		BEQ wait
		MOV @0xF041, R1
		HALT
	`)
	sender.LoadImage(sendProg.Org, sendProg.Words)
	sender.SetPC(sendProg.Org)
	sender.SetReg(machine.RegSP, 0x800)
	receiver.LoadImage(recvProg.Org, recvProg.Words)
	receiver.SetPC(recvProg.Org)
	receiver.SetReg(machine.RegSP, 0x800)

	sender.Run(100)
	receiver.Run(100)
	if !receiver.Halted() {
		t.Fatal("receiver did not halt")
	}
	if got := receiver.Reg(1); got != 0xCAFE {
		t.Errorf("received %#x, want 0xCAFE", got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := machine.New(0x800)
	tty := machine.NewTTY("tty0", 1)
	m.Attach(tty)
	im := asm.MustAssemble(`
		.org 0x100
		MOV #1, R0
	loop:
		ADD #1, R0
		BR loop
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	tty.InjectString("hello")
	for i := 0; i < 17; i++ {
		m.Step()
	}
	snap := m.Snapshot()

	// Run on, then restore, then run the same distance again: states match.
	for i := 0; i < 31; i++ {
		m.Step()
	}
	after1 := m.Snapshot()
	if err := m.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !m.Snapshot().Equal(snap) {
		t.Fatal("restore did not reproduce the snapshot")
	}
	for i := 0; i < 31; i++ {
		m.Step()
	}
	after2 := m.Snapshot()
	if !after1.Equal(after2) {
		t.Error("machine is not deterministic after restore")
	}
}

func TestSnapshotDetectsDifference(t *testing.T) {
	m := machine.New(0x400)
	a := m.Snapshot()
	m.WritePhys(0x200, 1)
	b := m.Snapshot()
	if a.Equal(b) {
		t.Error("snapshots equal despite RAM difference")
	}
}

// Every device accepts the state vector it snapshots and refuses one a
// word shorter or longer, and Restore refuses such a snapshot without
// changing the machine.
func TestCheckStateMatchesAppendState(t *testing.T) {
	m := machine.New(0x400)
	tty, lp := machine.NewTTY("tty", 1), machine.NewPrinter("lp", 1)
	tx, rx := machine.NewLink("ln", 4)
	for _, d := range []machine.Device{tty, lp, machine.NewClock("clk", 3), tx, rx} {
		m.Attach(d)
	}
	tty.InjectString("hi")
	tty.WriteReg(3, 'x')
	lp.WriteReg(1, 'y')
	for _, d := range m.Devices() {
		ws := d.AppendState(nil)
		if err := d.CheckState(ws); err != nil {
			t.Errorf("%s refuses its own state: %v", d.Name(), err)
		}
		if err := d.CheckState(ws[:len(ws)-1]); err == nil {
			t.Errorf("%s accepts its state one word short", d.Name())
		}
		if err := d.CheckState(append(ws, 0)); err == nil {
			t.Errorf("%s accepts its state one word long", d.Name())
		}
	}
	before := m.Snapshot()
	bad := m.Snapshot()
	bad.RAM[0] = 1
	bad.Devices[0] = bad.Devices[0][:3]
	if err := m.Restore(bad); err == nil {
		t.Fatal("Restore accepted a 3-word TTY state")
	}
	if !m.Snapshot().Equal(before) {
		t.Error("a refused Restore changed the machine")
	}
}

func TestKernelBusTimeoutIsMachineCheck(t *testing.T) {
	m := machine.New(0x400)
	im := asm.MustAssemble(`
		.org 0x100
		MOV @0xE000, R0   ; no RAM there, no device
		HALT
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.Run(10)
	if !m.Halted() || m.Fault == nil {
		t.Errorf("kernel bus timeout should machine-check; halted=%v fault=%v",
			m.Halted(), m.Fault)
	}
}

func TestUserMTPSOnlySetsCC(t *testing.T) {
	m := machine.New(0x2000)
	// User program tries to raise priority / clear user bit.
	prog := asm.MustAssemble(`
		.org 0
		MTPS #0x00E0      ; attempt: kernel mode, priority 7
		MOV #1, R0
		HALT              ; illegal in user mode → trap
	`)
	for i, w := range prog.Words {
		m.WritePhys(0x400+machine.Word(i), w)
	}
	m.SetSeg(0, 0x400, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRW))
	m.SetVector(machine.VecIllegal, 0x300, machine.WithPriority(0, 7))
	m.WritePhys(0x300, machine.Enc2(machine.OpHALT, 0, 0))
	m.SetPSW(machine.PSWUser)
	m.SetAltSP(0x1000)
	m.SetPC(0)
	m.Run(50)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	// If MTPS had taken effect, the HALT would have stopped the machine in
	// kernel mode with R0==1 but without visiting the illegal vector.
	// The illegal vector handler halts with PC near 0x300.
	if pc := m.PC(); pc != 0x301 {
		t.Errorf("expected halt inside illegal-instruction handler, PC=%#x", pc)
	}
}

func TestDisasmRoundTrip(t *testing.T) {
	im := asm.MustAssemble(`
		.org 0x100
		MOV #5, R0
		ADD R0, (R1)
		SUB 4(R2), R3
		CMP #1, @0x200
		BEQ done
		TRAP #9
	done:
		HALT
	`)
	pos := 0
	var texts []string
	for pos < len(im.Words) {
		s, n := machine.Disasm(im.Words[pos:])
		texts = append(texts, s)
		pos += n
	}
	want := []string{
		"MOV #0x5, R0",
		"ADD R0, (R1)",
		"SUB 0x4(R2), R3",
		"CMP #0x1, @0x200",
		"BEQ +1",
		"TRAP #9",
		"HALT",
	}
	if len(texts) != len(want) {
		t.Fatalf("disassembled %d instructions, want %d: %v", len(texts), len(want), texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("instr %d: %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestTracerCapturesInstructions(t *testing.T) {
	m := machine.New(0x400)
	im := asm.MustAssemble(`
		.org 0x100
		MOV #1, R0
		ADD #2, R0
		HALT
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	var got []machine.TraceEntry
	m.SetTracer(func(e machine.TraceEntry) { got = append(got, e) })
	m.Run(10)
	want := []string{"MOV #0x1, R0", "ADD #0x2, R0", "HALT"}
	if len(got) != len(want) {
		t.Fatalf("traced %d entries, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Text != w {
			t.Errorf("entry %d = %q, want %q", i, got[i].Text, w)
		}
		if got[i].User {
			t.Errorf("entry %d marked user mode", i)
		}
	}
	if got[0].PC != 0x100 {
		t.Errorf("first PC = %#x", got[0].PC)
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	m := machine.New(0x400)
	tty := machine.NewTTY("t", 1)
	h := m.Attach(tty)
	tty.InjectString("A")
	m.TickDevices() // byte presented
	// Peeking the RDATA address must NOT consume the byte (it refuses to
	// read I/O space at all).
	if _, ok := m.Peek(h.Base + 1); ok {
		t.Error("Peek read an I/O register")
	}
	if got := m.ReadPhys(h.Base) & 1; got != 1 {
		t.Error("receiver no longer ready — peek had a side effect?")
	}
	// Peek in user mode with no mapping fails without latching an abort.
	m.SetPSW(machine.PSWUser)
	before, beforeV := m.MMUAbort()
	if _, ok := m.Peek(0x2000); ok {
		t.Error("peek through unmapped segment succeeded")
	}
	if after, afterV := m.MMUAbort(); after != before || afterV != beforeV {
		t.Error("peek latched MMU abort state")
	}
}

// Exhaustive branch semantics: every conditional branch against every
// condition-code combination, checked against a Go reference.
func TestBranchSemanticsExhaustive(t *testing.T) {
	type ref func(n, z, v, c bool) bool
	refs := map[machine.Word]ref{
		machine.OpBR:  func(n, z, v, c bool) bool { return true },
		machine.OpBEQ: func(n, z, v, c bool) bool { return z },
		machine.OpBNE: func(n, z, v, c bool) bool { return !z },
		machine.OpBLT: func(n, z, v, c bool) bool { return n != v },
		machine.OpBGE: func(n, z, v, c bool) bool { return n == v },
		machine.OpBGT: func(n, z, v, c bool) bool { return !z && n == v },
		machine.OpBLE: func(n, z, v, c bool) bool { return z || n != v },
		machine.OpBCS: func(n, z, v, c bool) bool { return c },
		machine.OpBCC: func(n, z, v, c bool) bool { return !c },
		machine.OpBMI: func(n, z, v, c bool) bool { return n },
		machine.OpBPL: func(n, z, v, c bool) bool { return !n },
	}
	for op, want := range refs {
		for flags := 0; flags < 16; flags++ {
			m := machine.New(0x200)
			n := flags&8 != 0
			z := flags&4 != 0
			v := flags&2 != 0
			c := flags&1 != 0
			var psw machine.Word
			if n {
				psw |= machine.FlagN
			}
			if z {
				psw |= machine.FlagZ
			}
			if v {
				psw |= machine.FlagV
			}
			if c {
				psw |= machine.FlagC
			}
			m.SetPSW(machine.WithPriority(psw, 7))
			m.WritePhys(0x100, machine.EncBranch(op, 5))
			m.SetPC(0x100)
			m.Step()
			taken := m.PC() == 0x106
			if taken != want(n, z, v, c) {
				t.Errorf("%s with NZVC=%04b: taken=%v, want %v",
					machine.OpName(op), flags, taken, want(n, z, v, c))
			}
		}
	}
}

// NEG edge cases per the documented flag semantics.
func TestNEGFlags(t *testing.T) {
	cases := []struct {
		in      machine.Word
		out     machine.Word
		c, v, z bool
	}{
		{0, 0, false, false, true},
		{1, 0xFFFF, true, false, false},
		{0x8000, 0x8000, true, true, false},
	}
	for _, tc := range cases {
		m := machine.New(0x200)
		m.SetReg(0, tc.in)
		m.WritePhys(0x100, machine.Enc2(machine.OpNEG, 0, machine.Spec(machine.ModeReg, 0)))
		m.SetPC(0x100)
		m.Step()
		if got := m.Reg(0); got != tc.out {
			t.Errorf("NEG %#x = %#x, want %#x", tc.in, got, tc.out)
		}
		psw := m.PSW()
		if (psw&machine.FlagC != 0) != tc.c || (psw&machine.FlagV != 0) != tc.v ||
			(psw&machine.FlagZ != 0) != tc.z {
			t.Errorf("NEG %#x flags = %#x, want C=%v V=%v Z=%v", tc.in, psw&0xF, tc.c, tc.v, tc.z)
		}
	}
}

// JSR/RTS nest correctly three levels deep.
func TestNestedSubroutines(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		JSR one
		MOV #0xF, R5
		HALT
	one:
		ADD #1, R0
		JSR two
		ADD #8, R0
		RTS
	two:
		ADD #2, R0
		JSR three
		ADD #4, R0
		RTS
	three:
		ADD #0x10, R0
		RTS
	`, 200)
	if got := m.Reg(0); got != 0x1F {
		t.Errorf("nested calls accumulated %#x, want 0x1F", got)
	}
	if got := m.Reg(5); got != 0xF {
		t.Errorf("did not return to main: R5=%#x", got)
	}
}
