package minisue_test

import (
	"testing"

	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/separability"
)

// prove runs the whole exhaustive sweep of sys on the given number of
// workers (0 = one per CPU core) and returns its verdict, failing the test
// on error.
func prove(tb testing.TB, sys model.Enumerable, maxViolations, workers int) *separability.Result {
	tb.Helper()
	sr, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		MaxViolations: maxViolations, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sr.Result()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// The headline result: the secure MiniSUE — a system with the real
// kernel's structure (shared accumulator, save slots, interrupt flags) —
// satisfies all six conditions over its ENTIRE state space. This is a
// proof by explicit-state model checking, the executable analogue of the
// companion paper's hand proof.
func TestSecureMiniSUEProvenSeparable(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive proof skipped in -short mode")
	}
	sys := minisue.New(minisue.Secure)
	res := prove(t, sys, 0, 0)
	if !res.Passed() {
		for i, v := range res.Violations {
			if i > 4 {
				break
			}
			t.Logf("violation: %s", v)
		}
		t.Fatalf("secure MiniSUE failed: %s", res.Summary())
	}
	// Every condition was genuinely exercised, and at scale.
	for c := separability.Condition1; c <= separability.Condition6; c++ {
		if res.Checks[c] == 0 {
			t.Errorf("%s never checked", c)
		}
	}
	total := 0
	for _, n := range res.Checks {
		total += n
	}
	if total < 100000 {
		t.Errorf("only %d condition instances checked; expected an exhaustive sweep", total)
	}
	t.Logf("proved: %s", res.Summary())
}

func TestInsecureVariantsRefuted(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive refutation skipped in -short mode")
	}
	cases := []struct {
		v    minisue.Variant
		want separability.Condition
	}{
		// The SWAP register leak: the incoming regime's abstract
		// accumulator changes under the outgoing regime's operation.
		{minisue.RegisterLeak, separability.Condition2},
		// Misrouted interrupts: a regime's pending flag moves on inputs
		// that carry no component of its colour.
		{minisue.InterruptMisroute, separability.Condition4},
		// The shared cell: two states with equal Φc but different cell
		// contents diverge under the same INC.
		{minisue.SharedCell, separability.Condition1},
	}
	for _, tc := range cases {
		t.Run(minisue.VariantName(tc.v), func(t *testing.T) {
			sys := minisue.New(tc.v)
			res := prove(t, sys, 0, 0)
			if res.Passed() {
				t.Fatalf("insecure variant %s passed the exhaustive check",
					minisue.VariantName(tc.v))
			}
			found := false
			for _, got := range res.ViolatedConditions() {
				if got == tc.want {
					found = true
				}
			}
			if !found {
				t.Errorf("want %s among violations, got %v", tc.want, res.ViolatedConditions())
			}
		})
	}
}

// The randomized checker agrees with the exhaustive one on this system —
// calibrating the sampling approach used on the real kernel.
func TestRandomizedAgreesWithExhaustive(t *testing.T) {
	opt := separability.Options{Trials: 30, StepsPerTrial: 40, Seed: 5}
	if res := separability.CheckRandomized(minisue.New(minisue.Secure), opt); !res.Passed() {
		t.Errorf("randomized check failed the proven-secure system: %s", res.Summary())
	}
	for _, v := range []minisue.Variant{minisue.RegisterLeak, minisue.InterruptMisroute, minisue.SharedCell} {
		if res := separability.CheckRandomized(minisue.New(v), opt); res.Passed() {
			t.Errorf("randomized check missed %s", minisue.VariantName(v))
		}
	}
}

func TestBasicExecution(t *testing.T) {
	sys := minisue.New(minisue.Secure)
	// Run the boot state forward: red INC, OUT, SWAP; then black.
	if sys.Colour() != "red" {
		t.Fatalf("boot colour = %s", sys.Colour())
	}
	sys.Step() // red INC
	sys.Step() // red OUT
	if got := sys.ExtractOutput("red", sys.CurrentOutput()); got != "out=1" {
		t.Errorf("red out = %s", got)
	}
	sys.Step() // red SWAP
	if sys.Colour() != "black" {
		t.Errorf("after swap colour = %s", sys.Colour())
	}
	// Black's view is pristine.
	if got := sys.Abstract("black"); got != "acc=0;pc=0;out=0;pend=0" {
		t.Errorf("black abstract = %s", got)
	}
}

func TestInterruptDelivery(t *testing.T) {
	sys := minisue.New(minisue.Secure)
	sys.ApplyInput(sys.RandomInputMatching("red", nil, fixedRand{})) // no irq
	// Raise red's interrupt explicitly via enumerated input.
	var irqRed model.Input
	sys.EnumerateInputs(func(i model.Input) bool {
		if sys.ExtractInput("red", i) == "irq=1" && sys.ExtractInput("black", i) == "irq=0" {
			irqRed = i
			return false
		}
		return true
	})
	sys.ApplyInput(irqRed)
	if op := sys.NextOp(); op != "deliver:red" {
		t.Fatalf("next op = %s", op)
	}
	sys.Step()
	if got := sys.Abstract("red"); got != "acc=2;pc=0;out=0;pend=0" {
		t.Errorf("after delivery: %s", got)
	}
	// Black is untouched.
	if got := sys.Abstract("black"); got != "acc=0;pc=0;out=0;pend=0" {
		t.Errorf("black perturbed by red's interrupt: %s", got)
	}
}

// fixedRand is a degenerate model.Rand for deterministic test setup.
type fixedRand struct{}

func (fixedRand) Intn(int) int   { return 0 }
func (fixedRand) Uint32() uint32 { return 0 }
