package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/verifysys"
)

// The randomized checker's per-state work reuses buffers the adapter and
// the machine own: once warm, a Φ^c digest, an output vector and a
// checkpoint cycle allocate nothing, however long the TTY's output
// history has grown, and neither does bucketing a user operation.
func TestCheckHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	a, err := verifysys.Build(verifysys.ProbeFor(kernel.Leaks{}), kernel.Leaks{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 20000 && a.ExtractOutput("worker", a.CurrentOutput()) == "tty0=;"; s++ {
		if s%4 == 0 {
			a.ApplyInput(a.RandomInput(rng))
		} else {
			a.ApplyInput(nil)
		}
		a.Step()
	}
	if a.ExtractOutput("worker", a.CurrentOutput()) == "tty0=;" {
		t.Fatal("the worker's TTY emitted nothing: the output history went unexercised")
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"AbstractDigest", func() { a.AbstractDigest("worker") }},
		{"CurrentOutput", func() { a.CurrentOutput() }},
		{"ClassifyOp", func() { a.ClassifyOp("user:worker@0040:1234") }},
		{"Checkpoint cycle", func() {
			cp := a.Checkpoint()
			a.ApplyInput(nil)
			a.Step()
			a.Rollback(cp)
			a.Release(cp)
		}},
	} {
		tc.fn()
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, n)
		}
	}
}
