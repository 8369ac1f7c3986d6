package kernel_test

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// overflowSrc enables TTY receive interrupts, then points its stack at
// 0x601: outside its 0x200-word partition, and the physical address of
// the second word of the next partition. Delivering an interrupt cannot
// push the return frame, so the regime dies at its next delivery.
const overflowSrc = `
	.org 0x40
start:
	MOV #isr, @0x10
	MOV #0x40, @DEV0     ; TTY: enable receive interrupts
	TRAP #IRQON
	MOV #0x601, SP
loop:
	TRAP #SWAP
	BR loop
isr:
	RTI
`

// neighbourSrc keeps 0x1234 at virtual 1 (physical 0x601) and yields.
const neighbourSrc = `
	.org 0
	.word 0, 0x1234, 0x5678
	.org 0x40
start:
	TRAP #SWAP
	BR start
`

// adjacentKernel boots two 0x200-word partitions at 0x400 and 0x600,
// with a TTY on the first.
func adjacentKernel(t *testing.T, srcA, srcB string, fixedSlice int) (*kernel.Kernel, *machine.TTY) {
	t.Helper()
	m := machine.New(0x1000)
	tty := machine.NewTTY("tty0", 1)
	m.Attach(tty)
	k, err := kernel.New(m, kernel.Config{
		Regimes: []kernel.RegimeSpec{
			{Name: "a", Base: 0x400, Size: 0x200, Image: prog(t, srcA),
				Devices: []machine.Device{tty}},
			{Name: "b", Base: 0x600, Size: 0x200, Image: prog(t, srcB)},
		},
		FixedSlice: fixedSlice,
	})
	if err != nil {
		t.Fatalf("kernel.New: %v", err)
	}
	if err := k.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return k, tty
}

// stepUntilDead steps k until regime i dies and returns regime i's live PC
// from the step it died in.
func stepUntilDead(t *testing.T, k *kernel.Kernel, i, max int) kernel.Word {
	t.Helper()
	m := k.Machine()
	for n := 0; n < max; n++ {
		pc, live := m.PC(), k.CurrentRegime() == i && machine.IsUser(m.PSW())
		k.Step()
		if k.Dead() {
			t.Fatalf("kernel died: %v", k.Cause)
		}
		if k.RegimeStateOf(i) == kernel.StateDead {
			if !live {
				t.Fatalf("regime %d died while not holding the CPU", i)
			}
			return pc
		}
	}
	t.Fatalf("regime %d still alive after %d steps", i, max)
	return 0
}

// TestDeliveryOverflowSavesLiveContext: a regime that dies because a
// virtual interrupt cannot be pushed onto its stack is saved from the
// live registers. There is no trap frame on that path, so reading one
// would take the saved PC and PSW from the physical address equal to the
// regime's virtual SP: here the neighbour's word 0x1234.
func TestDeliveryOverflowSavesLiveContext(t *testing.T) {
	k, tty := adjacentKernel(t, overflowSrc, neighbourSrc, 0)
	a := k.RegimeIndex("a")
	k.Run(50)
	tty.InjectString("x")
	pc := stepUntilDead(t, k, a, 1000)
	f := k.RegimeFault(a)
	if !strings.Contains(f.Reason, "stack overflow") {
		t.Fatalf("fault = %q, want a delivery stack overflow", f.Reason)
	}
	if got := k.RegimeReg(a, machine.RegPC); got != pc {
		t.Errorf("saved PC = %#x, want the live PC %#x", got, pc)
	}
	if f.PC != pc {
		t.Errorf("FaultInfo.PC = %#x, want the live PC %#x", f.PC, pc)
	}
	if got := k.RegimeReg(a, machine.RegSP); got != 0x601 {
		t.Errorf("saved SP = %#x, want the live SP 0x601", got)
	}
}

// TestDeliveryOverflowIsSeparable: the registered honest system, with
// worker current, interruptible, one interrupt pending and its stack
// pointer on the second word of peer's partition, satisfies every
// condition for worker. A delivery that fails and saves a trap frame
// that does not exist copies peer's words into worker's saved PC and
// PSW, a condition-1 violation at every seed.
func TestDeliveryOverflowIsSeparable(t *testing.T) {
	d, ok := verifysys.FindDeployment("honest")
	if !ok {
		t.Fatal("no honest deployment")
	}
	a, err := verifysys.FromSpec(d.Spec)
	if err != nil {
		t.Fatal(err)
	}
	k, m := a.K, a.K.Machine()
	w := k.RegimeIndex("worker")
	for n := 0; ; n++ {
		if h, _ := k.ReadRegimeMem(w, kernel.RegimeVecBase); h != 0 && k.CurrentRegime() == w && machine.IsUser(m.PSW()) {
			break
		}
		if n == 1000 {
			t.Fatal("worker never installed its interrupt handler")
		}
		a.ApplyInput(nil)
		a.Step()
	}
	m.SetReg(machine.RegSP, 0x601)
	m.WritePhys(kernel.SaveBase(w)+kernel.SaveOffPending, 1)
	if op := a.NextOp(); op != "deliver-irq:worker:0" {
		t.Fatalf("next operation %q, want deliver-irq:worker:0", op)
	}
	for seed := int64(1); seed <= 20; seed++ {
		if vs := separability.CheckStateSeeded(a, model.Colour("worker"), seed, 0, 0, true); len(vs) > 0 {
			t.Errorf("seed %d: %d violations, first %v", seed, len(vs), vs[0])
		}
	}
}

// TestFixedSliceExitsPark: under fixed slices every way a regime leaves
// the CPU parks it in the kernel idle loop until the slice boundary, so
// no regime chooses when the next one starts.
func TestFixedSliceExitsPark(t *testing.T) {
	for _, tc := range []struct {
		name, src, reason string
		pre               int // steps before the TTY byte arrives
	}{
		{"mmu-abort", `
	.org 0x40
start:
	MOV @0x7000, R0
`, "MMU abort", 0},
		{"illegal", `
	.org 0x40
start:
	HALT
`, "illegal instruction", 0},
		{"bad-virtual-rti", `
	.org 0x40
start:
	MOV #0x7000, SP
	RTI
`, "bad stack on virtual RTI", 0},
		{"delivery-overflow", `
	.org 0x40
start:
	MOV #isr, @0x10
	MOV #0x40, @DEV0
	TRAP #IRQON
	MOV #0x601, SP
loop:
	BR loop
isr:
	RTI
`, "stack overflow", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, tty := adjacentKernel(t, tc.src, neighbourSrc, 50)
			k.Run(tc.pre)
			tty.InjectString("x")
			a := k.RegimeIndex("a")
			stepUntilDead(t, k, a, 1000)
			if f := k.RegimeFault(a); !strings.Contains(f.Reason, tc.reason) {
				t.Fatalf("fault = %q, want %q", f.Reason, tc.reason)
			}
			left := k.SliceLeft()
			if left == 0 {
				t.Fatal("died on the last cycle of its slice: nothing to check")
			}
			m := k.Machine()
			for ; left > 0; left-- {
				if !k.Parked() || machine.IsUser(m.PSW()) || k.CurrentRegime() != a {
					t.Fatalf("%d cycles before the boundary: parked %v, PSW %#x, current %d; want parked in kernel mode with regime %d current",
						left, k.Parked(), m.PSW(), k.CurrentRegime(), a)
				}
				k.Step()
			}
			k.Step()
			if k.CurrentRegime() != k.RegimeIndex("b") || k.Parked() {
				t.Errorf("after the boundary: current %d, parked %v; want b running", k.CurrentRegime(), k.Parked())
			}
		})
	}
}
