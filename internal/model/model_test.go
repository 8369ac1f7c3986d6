package model_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
)

// The model package is pure interface; its tests pin the contracts:
// the two real implementations must satisfy the intended interfaces, and
// the documented step protocol must hold for any SharedSystem.

var (
	_ model.Enumerable  = (*separability.ToySystem)(nil)
	_ model.Perturbable = (*separability.ToySystem)(nil)
	_ model.Perturbable = (*kernel.Adapter)(nil)
)

func TestStepProtocolOnToy(t *testing.T) {
	var sys model.SharedSystem = separability.NewToySystem(separability.ToySecure)

	if len(sys.Colours()) != 2 {
		t.Fatalf("colours = %v", sys.Colours())
	}
	s0 := sys.Save()
	// One model time step: output, input, operation.
	_ = sys.CurrentOutput()
	sys.ApplyInput(nil)
	before := sys.Colour()
	op := sys.NextOp()
	sys.Step()
	if op == "" || before == "" {
		t.Error("colour/op must be defined at every state")
	}
	// Save/Restore is a true snapshot: restoring replays identically.
	after1 := sys.Abstract(sys.Colours()[0])
	sys.Restore(s0)
	sys.ApplyInput(nil)
	sys.Step()
	if got := sys.Abstract(sys.Colours()[0]); got != after1 {
		t.Error("restore did not reproduce the state")
	}
}

func TestAbstractEncodingsDifferPerColour(t *testing.T) {
	sys := separability.NewToySystem(separability.ToySecure)
	sys.Step()
	a := sys.Abstract("red")
	b := sys.Abstract("black")
	if a == "" || b == "" {
		t.Fatal("empty abstraction")
	}
	// After one red operation the two projections must differ (red moved,
	// black did not).
	if a == b {
		t.Error("distinct colours share an abstraction")
	}
}

// DigestBytes is DigestString over a byte slice, for every length and for
// every byte value.
func TestDigestBytesMatchesDigestString(t *testing.T) {
	var b []byte
	for i := 0; i < 1024; i++ {
		if got, want := model.DigestBytes(b), model.DigestString(string(b)); got != want {
			t.Fatalf("len %d: DigestBytes %016x, DigestString %016x", len(b), got, want)
		}
		b = append(b, byte(i*167))
	}
	if model.DigestBytes(nil) != model.DigestString("") {
		t.Fatal("empty input: digests differ")
	}
}
