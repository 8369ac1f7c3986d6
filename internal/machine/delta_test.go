package machine_test

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// deltaTestSrc keeps the CPU busy with RAM stores, stack traffic and a TTY
// echo interrupt handler, so random stepping exercises traps, device reads
// with side effects, and device register writes.
const deltaTestSrc = `
	.org 0x100
	MOV #isr, @0x20        ; TTY vector PC
	MOV #0x00E0, @0x21     ; kernel, priority 7 inside ISR
	MOV #0x40, @0xF040     ; enable receiver interrupts
	MTPS #0x0000           ; open interrupts
	MOV #0, R2
loop:
	ADD #1, R2
	MOV R2, @0x800
	PUSH R2
	POP R3
	BR loop
isr:
	MOV @0xF041, R1        ; consume the byte
	MOV R1, @0xF043        ; echo it
	RTI
`

// newDeltaTestMachine builds a machine with a TTY and a clock running the
// echo program.
func newDeltaTestMachine(t testing.TB) (*machine.Machine, *machine.TTY) {
	t.Helper()
	m := machine.New(0x2000)
	tty := machine.NewTTY("tty0", 2)
	m.Attach(tty)
	m.Attach(machine.NewClock("clk0", 3))
	im, err := asm.Assemble(deltaTestSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.LoadImage(im.Org, im.Words); err != nil {
		t.Fatalf("load: %v", err)
	}
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x1000)
	return m, tty
}

// mutateMachine applies one random mutation through a public entry point;
// every one of these must be undone exactly by DeltaRestore.
func mutateMachine(m *machine.Machine, tty *machine.TTY, rng *rand.Rand) {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		m.Step()
	case 4:
		m.WritePhys(machine.Word(rng.Intn(m.RAMWords())), machine.Word(rng.Uint32()))
	case 5:
		m.TickDevices()
	case 6:
		m.Inject(tty, []machine.Word{machine.Word(rng.Intn(256))})
	case 7:
		m.WritePhys(0xF040+machine.Word(rng.Intn(4)), machine.Word(rng.Uint32()))
	case 8:
		m.ReadPhys(0xF041) // TTY data reads consume the pending byte
	case 9:
		m.SetVector(machine.Word(0x20+rng.Intn(8)), machine.Word(rng.Uint32()),
			machine.Word(rng.Uint32()))
	}
}

// TestDeltaRestoreMatchesFullRestore is the differential property test of
// the tentpole: after arbitrary mutation sequences, DeltaRestore must
// reproduce exactly the state a full Snapshot captured, over many
// checkpoints and repeated rollbacks per checkpoint.
func TestDeltaRestoreMatchesFullRestore(t *testing.T) {
	m, tty := newDeltaTestMachine(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m.Step()
	}
	for round := 0; round < 25; round++ {
		ref := m.Snapshot()
		d := m.DeltaSnapshot()
		if d == nil {
			t.Fatal("DeltaSnapshot returned nil with no active delta")
		}
		if m.DeltaSnapshot() != nil {
			t.Fatal("nested DeltaSnapshot should return nil")
		}
		for sub := 0; sub < 4; sub++ {
			n := rng.Intn(60)
			for i := 0; i < n; i++ {
				mutateMachine(m, tty, rng)
			}
			m.DeltaRestore(d)
			if !m.Snapshot().Equal(ref) {
				t.Fatalf("round %d sub %d: delta-restored state differs from full snapshot", round, sub)
			}
		}
		m.EndDelta(d)
		// Mutate outside any delta so each round anchors somewhere new.
		for i := 0; i < 10; i++ {
			mutateMachine(m, tty, rng)
		}
	}
}

// TestDeltaJournalsBulkOperations checks that the bulk mutators degrade to
// journaled writes while a delta is active.
func TestDeltaJournalsBulkOperations(t *testing.T) {
	m, tty := newDeltaTestMachine(t)
	for i := 0; i < 30; i++ {
		m.Step()
	}
	other := m.Snapshot()
	for i := 0; i < 40; i++ {
		m.Step()
	}
	ref := m.Snapshot()

	d := m.DeltaSnapshot()
	m.ClearRAM()
	m.SetVector(0x24, 0x1234, 0x00E0)
	if err := m.LoadImage(0x300, []machine.Word{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(other); err != nil {
		t.Fatal(err)
	}
	m.Inject(tty, []machine.Word{0x41})
	m.Reset()
	m.DeltaRestore(d)
	m.EndDelta(d)
	if !m.Snapshot().Equal(ref) {
		t.Fatal("bulk operations under a delta were not fully undone")
	}
}

// TestDeltaDirtyTracking pins the O(dirty) claim: the undo log grows with
// distinct words written, not with RAM size.
func TestDeltaDirtyTracking(t *testing.T) {
	m, _ := newDeltaTestMachine(t)
	d := m.DeltaSnapshot()
	if n := d.DirtyWords(); n != 0 {
		t.Fatalf("fresh delta has %d dirty words", n)
	}
	m.WritePhys(0x800, 1)
	m.WritePhys(0x800, 2) // same word: still one log entry
	m.WritePhys(0x801, 3)
	if n := d.DirtyWords(); n != 2 {
		t.Fatalf("dirty words = %d, want 2", n)
	}
	m.DeltaRestore(d)
	if n := d.DirtyWords(); n != 0 {
		t.Fatalf("dirty words after rollback = %d, want 0", n)
	}
	m.WritePhys(0x800, 9) // must be re-journaled after the rollback
	if n := d.DirtyWords(); n != 1 {
		t.Fatalf("dirty words after re-write = %d, want 1", n)
	}
	m.DeltaRestore(d)
	if got := m.ReadPhys(0x800); got != 0 {
		t.Fatalf("word 0x800 = %#x after rollback, want 0", got)
	}
	m.EndDelta(d)
}

// FuzzDeltaRestore drives the machine with a fuzzer-chosen mutation script
// and asserts DeltaRestore lands exactly on the pre-checkpoint snapshot.
func FuzzDeltaRestore(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x20, 0x01, 0x42, 0x99})
	f.Add([]byte("0123456789abcdef"))
	f.Add([]byte{0x05, 0xff, 0xff, 0x03, 0x00, 0x41, 0x06, 0x40, 0x01})
	f.Add([]byte{0x07, 0x00, 0x00, 0x07, 0x01, 0x00, 0x04, 0x08, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, tty := newDeltaTestMachine(t)
		for i := 0; i < 20; i++ {
			m.Step()
		}
		ref := m.Snapshot()
		d := m.DeltaSnapshot()
		if d == nil {
			t.Fatal("DeltaSnapshot returned nil")
		}
		// The checker rolls one delta back many times, so the op sequence
		// replays through two rollback generations: the second reuses the
		// delta's device copies and the devices' buffers the first left.
		for gen := 0; gen < 2; gen++ {
			applyFuzzOps(m, tty, data)
			m.DeltaRestore(d)
			if !m.Snapshot().Equal(ref) {
				t.Fatalf("generation %d: delta-restored state differs from pre-checkpoint snapshot", gen)
			}
		}
		m.EndDelta(d)
		if !m.Snapshot().Equal(ref) {
			t.Fatal("EndDelta changed the restored state")
		}
	})
}

// applyFuzzOps applies the mutation that each three-byte group of data
// encodes.
func applyFuzzOps(m *machine.Machine, tty *machine.TTY, data []byte) {
	for i := 0; i+2 < len(data); i += 3 {
		op, a, v := data[i], data[i+1], data[i+2]
		addr := machine.Word(a) | machine.Word(v)<<8
		switch op % 8 {
		case 0:
			m.Step()
		case 1:
			m.WritePhys(addr%machine.Word(m.RAMWords()), machine.Word(op)*257)
		case 2:
			m.WritePhys(0xF040+machine.Word(a%8), machine.Word(v))
		case 3:
			m.ReadPhys(0xF040 + machine.Word(a%8))
		case 4:
			m.TickDevices()
		case 5:
			m.Inject(tty, []machine.Word{machine.Word(v)})
		case 6:
			m.SetVector(machine.Word(0x20+a%16), machine.Word(v), 0x00E0)
		case 7:
			if a%16 == 0 {
				m.ClearRAM()
			} else {
				m.Step()
			}
		}
	}
}
