package machine_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

func TestJMPAndJSRModes(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #target, R1
		JMP (R1)            ; indirect jump... via register value
	dead1:
		HALT
	target:
		MOV #1, R2
		MOV #sub, R3
		JSR (R3)            ; subroutine via register
		MOV #3, R5
		HALT
	sub:
		MOV #2, R4
		RTS
	`, 100)
	if m.Reg(2) != 1 || m.Reg(4) != 2 || m.Reg(5) != 3 {
		t.Errorf("R2=%d R4=%d R5=%d", m.Reg(2), m.Reg(4), m.Reg(5))
	}
}

func TestJMPRegisterMode(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #dest, R0
		JMP R0             ; register mode: PC := R0
		HALT
	dest:
		MOV #7, R1
		HALT
	`, 50)
	if m.Reg(1) != 7 {
		t.Errorf("R1 = %d", m.Reg(1))
	}
}

func TestPushPopMemoryOperands(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #0x77, @0x300
		PUSH @0x300
		POP @0x302
		MOV @0x302, R1
		HALT
	`, 50)
	if m.Reg(1) != 0x77 {
		t.Errorf("R1 = %#x", m.Reg(1))
	}
}

func TestMOVToPCIsJump(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #dest, R7      ; writing PC jumps
		HALT
	dest:
		MOV #9, R1
		HALT
	`, 50)
	if m.Reg(1) != 9 {
		t.Errorf("R1 = %d", m.Reg(1))
	}
}

func TestSegmentLimitAbort(t *testing.T) {
	m := machine.New(0x2000)
	// Map only 0x10 words of segment 0.
	m.SetSeg(0, 0x400, machine.MakeSegCtl(0x10, machine.AccessRW))
	m.SetVector(machine.VecMMU, 0x200, machine.WithPriority(0, 7))
	m.WritePhys(0x200, machine.Enc2(machine.OpHALT, 0, 0))
	prog := asm.MustAssemble(`
		.org 0
		MOV #1, @0x10      ; first word past the limit
		HALT
	`)
	for i, w := range prog.Words {
		m.WritePhys(0x400+machine.Word(i), w)
	}
	m.SetPSW(machine.PSWUser)
	m.SetAltSP(0x1000)
	m.SetPC(0)
	m.Run(20)
	if reason, vaddr := m.MMUAbort(); reason != machine.MMULimit || vaddr != 0x10 {
		t.Errorf("abort = (%d, %#x), want (MMULimit, 0x10)", reason, vaddr)
	}
}

func TestUserBusTimeoutAborts(t *testing.T) {
	m := machine.New(0x1000) // small RAM: 0x1000..0xEFFF is a hole
	// Map a segment onto the hole.
	m.SetSeg(0, 0x2000, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRW))
	m.SetSeg(15, 0x400, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRO))
	m.SetVector(machine.VecMMU, 0x200, machine.WithPriority(0, 7))
	m.WritePhys(0x200, machine.Enc2(machine.OpHALT, 0, 0))
	prog := asm.MustAssemble(`
		.org 0
		MOV @0x0, R0       ; segment 0 -> phys 0x2000: nothing there
		HALT
	`)
	for i, w := range prog.Words {
		m.WritePhys(0x400+machine.Word(i), w)
	}
	m.SetPSW(machine.PSWUser)
	m.SetAltSP(0x800)
	m.SetPC(0xF000) // virtual segment 15 offset 0
	m.Run(20)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if reason, _ := m.MMUAbort(); reason != machine.MMUBusTimeout {
		t.Errorf("abort reason = %d, want MMUBusTimeout", reason)
	}
	if m.Fault != nil {
		t.Errorf("user bus timeout machine-checked: %v", m.Fault)
	}
}

func TestMFPSMTPSUserCC(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MTPS #0x0F         ; kernel mode: set all CC bits (priority 0)
		MFPS R0
		HALT
	`, 20)
	if got := m.Reg(0) & 0xF; got != 0xF {
		t.Errorf("CC after MTPS = %#x", got)
	}
}

func TestShiftEdges(t *testing.T) {
	m := runProgram(t, `
		.org 0x100
		MOV #1, R0
		SHL #0, R0         ; shift by zero: unchanged, C clear
		MFPS R1
		MOV #0x8000, R2
		SHL #1, R2         ; the top bit falls into C
		MFPS R3
		HALT
	`, 50)
	if m.Reg(0) != 1 {
		t.Errorf("SHL #0 changed the value: %#x", m.Reg(0))
	}
	if m.Reg(1)&machine.FlagC != 0 {
		t.Error("SHL #0 set carry")
	}
	if m.Reg(2) != 0 {
		t.Errorf("0x8000<<1 = %#x", m.Reg(2))
	}
	if m.Reg(3)&machine.FlagC == 0 {
		t.Error("carry lost on SHL #1 of 0x8000")
	}
	if m.Reg(3)&machine.FlagZ == 0 {
		t.Error("zero flag lost")
	}
}

func TestLinkDeviceSnapshotRoundTrip(t *testing.T) {
	tx, rx := machine.NewLink("w", 4)
	tx.WriteReg(0, 0x40)
	tx.Tick()
	s := tx.AppendState(nil)
	tx2, _ := machine.NewLink("w2", 4)
	tx2.RestoreState(s)
	if tx2.AppendState(nil)[0] != s[0] {
		t.Error("sending-end state did not round-trip")
	}
	rx.WriteReg(0, 0x40)
	rs := rx.AppendState(nil)
	if len(rs) != 3 {
		t.Errorf("receiving-end snapshot = %v", rs)
	}
}

func TestPrinterDevice(t *testing.T) {
	m := machine.New(0x1000)
	p := machine.NewPrinter("lp", 2)
	h := m.Attach(p)
	im := asm.MustAssemble(`
		.org 0x100
	wait:
		MOV @0xF040, R0
		AND #1, R0
		BEQ wait
		MOV #'A', @0xF041
	wait2:
		MOV @0xF040, R0
		AND #1, R0
		BEQ wait2
		MOV #'B', @0xF041
		HALT
	`)
	_ = h
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.Run(200)
	if got := p.OutputString(); got != "AB" {
		t.Errorf("printed %q", got)
	}
	// Snapshot round-trip with output buffered.
	s := p.AppendState(nil)
	p2 := machine.NewPrinter("lp2", 2)
	p2.RestoreState(s)
	if p2.OutputString() != "AB" {
		t.Error("printer state did not round-trip")
	}
}

func TestClockSnapshotRoundTrip(t *testing.T) {
	c := machine.NewClock("c", 7)
	c.WriteReg(0, 0x40)
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	s := c.AppendState(nil)
	c2 := machine.NewClock("c2", 7)
	c2.RestoreState(s)
	for i := range s {
		if c2.AppendState(nil)[i] != s[i] {
			t.Fatalf("clock state word %d did not round-trip", i)
		}
	}
	if !c.Pending() {
		t.Error("clock with IE never pended after 10 ticks at interval 7")
	}
	c.Ack()
	if c.Pending() {
		t.Error("ack did not clear the latch")
	}
}

func TestIllegalExtendedOperandTraps(t *testing.T) {
	m := machine.New(0x1000)
	m.SetVector(machine.VecIllegal, 0x200, machine.WithPriority(0, 7))
	m.WritePhys(0x200, machine.Enc2(machine.OpHALT, 0, 0))
	// MOV with src = ModeExtended reg 3 (reserved): illegal.
	m.WritePhys(0x100, machine.Enc2(machine.OpMOV,
		machine.Spec(machine.ModeExtended, 3), machine.Spec(machine.ModeReg, 0)))
	m.WritePhys(0x101, 0x1234)
	m.SetPC(0x100)
	m.SetReg(machine.RegSP, 0x800)
	m.Run(20)
	if !m.Halted() || m.PC() != 0x201 {
		t.Errorf("reserved operand spec did not trap; PC=%#x", m.PC())
	}
}

func TestUnknownOpcodeTraps(t *testing.T) {
	m := machine.New(0x1000)
	m.SetVector(machine.VecIllegal, 0x200, machine.WithPriority(0, 7))
	m.WritePhys(0x200, machine.Enc2(machine.OpHALT, 0, 0))
	m.WritePhys(0x100, 0xFC00) // opcode 63: undefined
	m.SetPC(0x100)
	m.SetReg(machine.RegSP, 0x800)
	m.Run(20)
	if !m.Halted() || m.PC() != 0x201 {
		t.Errorf("undefined opcode did not trap; PC=%#x", m.PC())
	}
}
