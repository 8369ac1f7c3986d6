package repro

// Micro-benchmarks for the substrate: raw costs of the machine simulator,
// snapshots, the kernel's abstraction function and the assembler. These
// document where the verification tooling's time goes (Abstract dominates
// randomized checking; snapshots dominate Save/Restore).

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/verifysys"
)

func BenchmarkMicroInstructionALU(b *testing.B) {
	m := machine.New(0x1000)
	im := asm.MustAssemble(`
		.org 0x100
	loop:
		ADD #1, R0
		XOR R0, R1
		BR loop
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkMicroDispatch measures raw instruction dispatch over a long
// straight-line block of register/immediate ALU traffic closed by a branch
// — the shape the verification hot loops spend their time in — driven
// through Run, the bulk-execution path. ns/op is ns per instruction.
func BenchmarkMicroDispatch(b *testing.B) {
	m := machine.New(0x1000)
	im := asm.MustAssemble(`
		.org 0x100
	loop:
		ADD #1, R0
		XOR R0, R1
		ADD #3, R2
		AND R0, R3
		OR R2, R4
		SUB #1, R5
		MOV R0, R5
		SHL #1, R1
		ADD R2, R0
		XOR #0x55, R4
		MOV #7, R3
		MUL R0, R2
		BR loop
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	b.ResetTimer()
	m.Run(b.N)
}

func BenchmarkMicroInstructionMemory(b *testing.B) {
	m := machine.New(0x1000)
	im := asm.MustAssemble(`
		.org 0x100
	loop:
		MOV @0x300, R0
		MOV R0, @0x302
		BR loop
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkMicroTrapRoundTrip(b *testing.B) {
	m := machine.New(0x1000)
	im := asm.MustAssemble(`
		.org 0x100
		MOV #handler, @0x0C
		MOV #0x00E0, @0x0D
	loop:
		TRAP #1
		BR loop
	handler:
		RTI
	`)
	m.LoadImage(im.Org, im.Words)
	m.SetPC(im.Org)
	m.SetReg(machine.RegSP, 0x800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkMicroSnapshot(b *testing.B) {
	m := machine.New(0x2000)
	tty := machine.NewTTY("t", 1)
	m.Attach(tty)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Snapshot()
		_ = s
	}
}

func BenchmarkMicroSnapshotRestore(b *testing.B) {
	m := machine.New(0x2000)
	s := m.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Restore(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSnapshotHash(b *testing.B) {
	m := machine.New(0x2000)
	s := m.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Hash()
	}
}

func BenchmarkMicroAbstract(b *testing.B) {
	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Run(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Abstract("worker")
	}
}

// BenchmarkMicroDigestMiss is AbstractDigest with no checkpoint active, so
// the digest cache never serves it: render Φ^c and hash it, every call.
func BenchmarkMicroDigestMiss(b *testing.B) {
	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Run(500)
	colours := sys.Colours()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.AbstractDigest(colours[i%len(colours)])
	}
}

func BenchmarkMicroPerturb(b *testing.B) {
	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Run(500)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PerturbOutside("worker", rng)
	}
}

func BenchmarkMicroAssemble(b *testing.B) {
	src := kernel.Prelude + verifysys.WorkerSrc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroKernelBoot(b *testing.B) {
	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.K.Boot(); err != nil {
			b.Fatal(err)
		}
	}
}
