package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/separability"
)

const counterSrc = `
	.org 0x40
start:
	MOV #0, R2
loop:
	ADD #1, R2
	MOV R2, @0x20
	TRAP #SWAP
	BR loop
`

const senderSrc = `
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	TRAP #SWAP
	BR loop
`

const receiverSrc = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
yield:
	TRAP #SWAP
	BR loop
`

func TestBuilderBasicSystem(t *testing.T) {
	sys, err := core.NewBuilder().
		Regime("a", counterSrc).
		Regime("b", counterSrc).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1000)
	if sys.Kernel.Dead() {
		t.Fatalf("kernel died: %v", sys.Kernel.Cause)
	}
	for _, name := range []string{"a", "b"} {
		if v, ok := sys.RegimeWord(name, 0x20); !ok || v < 5 {
			t.Errorf("regime %s progressed only to %d", name, v)
		}
	}
}

func TestBuilderChannels(t *testing.T) {
	sys, err := core.NewBuilder().
		Regime("tx", senderSrc).
		Regime("rx", receiverSrc).
		Channel("tx", "rx", 8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5000)
	if v, _ := sys.RegimeWord("rx", 0x20); v == 0 {
		t.Error("no data crossed the channel")
	}
	if sys.Stats().Swaps == 0 {
		t.Error("no swaps recorded")
	}
}

func TestBuilderCutChannels(t *testing.T) {
	sys, err := core.NewBuilder().
		Regime("tx", senderSrc).
		Regime("rx", receiverSrc).
		Channel("tx", "rx", 8).
		CutChannels().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5000)
	if v, _ := sys.RegimeWord("rx", 0x20); v != 0 {
		t.Errorf("cut channel delivered %d", v)
	}
}

func TestBuilderVerifyHonestAndLeaky(t *testing.T) {
	build := func(l kernel.Leaks) *core.System {
		return core.NewBuilder().
			RegimeSized("tx", senderSrc, 0x200).
			RegimeSized("rx", receiverSrc, 0x200).
			Channel("tx", "rx", 8).
			CutChannels().
			WithLeaks(l).
			MustBuild()
	}
	honest := build(kernel.Leaks{})
	res := honest.Verify(separability.Options{Trials: 4, StepsPerTrial: 50, Seed: 3})
	if !res.Passed() {
		t.Errorf("honest system failed verification: %s", res.Summary())
	}
	leaky := build(kernel.Leaks{OutputCopy: true})
	res = leaky.Verify(separability.Options{Trials: 6, StepsPerTrial: 80, Seed: 3})
	if res.Passed() {
		t.Error("OutputCopy leak passed verification")
	} else {
		found := false
		for _, c := range res.ViolatedConditions() {
			if c == separability.Condition2 {
				found = true
			}
		}
		if !found {
			t.Errorf("expected condition 2, got %v", res.ViolatedConditions())
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := core.NewBuilder().Build(); err == nil {
		t.Error("empty builder accepted")
	}
	if _, err := core.NewBuilder().Regime("x", "BOGUS").Build(); err == nil {
		t.Error("unassemblable regime accepted")
	}
	if _, err := core.NewBuilder().
		Regime("a", counterSrc).
		Channel("a", "nobody", 4).Build(); err == nil {
		t.Error("bad channel accepted")
	}
}

func TestBuilderWithDevice(t *testing.T) {
	tty := machine.NewTTY("tty0", 1)
	echo := `
	.org 0x40
start:
	MOV @DEV0, R0
	AND #1, R0
	BEQ yield
	MOV @DEV0+1, R1
	MOV R1, @DEV0+3
yield:
	TRAP #SWAP
	BR start
`
	sys, err := core.NewBuilder().
		Regime("io", echo, tty).
		Regime("other", counterSrc).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tty.InjectString("ok")
	sys.Run(5000)
	if got := tty.OutputString(); got != "ok" {
		t.Errorf("device echo = %q", got)
	}
}
