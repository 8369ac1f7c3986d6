package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
)

// mutateAdapter drives one random transition through the model.SharedSystem
// surface, the same entry points the separability checkers use.
func mutateAdapter(a *kernel.Adapter, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0, 1:
		a.Step()
	case 2:
		a.ApplyInput(a.RandomInput(rng))
	case 3:
		cs := a.Colours()
		a.PerturbOutside(cs[rng.Intn(len(cs))], rng)
	}
}

// abstractAll renders the full per-colour Φ table: the ground truth the
// rollback paths must reproduce.
func abstractAll(a *kernel.Adapter) map[model.Colour]string {
	out := map[model.Colour]string{}
	for _, c := range a.Colours() {
		out[c] = a.Abstract(c)
	}
	return out
}

// TestCheckpointRollbackMatchesRestore is the adapter-level differential
// test: Checkpoint/Rollback must land on exactly the machine state and Φ
// abstractions a full snapshot recorded, across repeated rollbacks. Along
// the walk every AbstractDigest must also pass the equality-partition
// differential against the rendered Φ strings.
func TestCheckpointRollbackMatchesRestore(t *testing.T) {
	a := adapterSystem(t)
	rng := rand.New(rand.NewSource(11))
	a.Randomize(rng)
	part := newPhiPartition()
	checkDigests := func(step string) {
		t.Helper()
		for _, c := range a.Colours() {
			if err := part.check(c, a.AbstractDigest(c), a.Abstract(c)); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	}

	for round := 0; round < 10; round++ {
		ref := a.K.Machine().Snapshot()
		want := abstractAll(a)

		cp := a.Checkpoint()
		if cp == nil {
			t.Fatal("Checkpoint returned nil on a fresh adapter")
		}
		if a.Checkpoint() != nil {
			t.Fatal("nested Checkpoint should return nil")
		}
		for sub := 0; sub < 3; sub++ {
			n := rng.Intn(40)
			for i := 0; i < n; i++ {
				mutateAdapter(a, rng)
				if i%5 == 0 {
					checkDigests(fmt.Sprintf("round %d sub %d step %d", round, sub, i))
				}
			}
			a.Rollback(cp)
			if !a.K.Machine().Snapshot().Equal(ref) {
				t.Fatalf("round %d sub %d: rolled-back machine state differs from snapshot", round, sub)
			}
			if got := abstractAll(a); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d sub %d: Φ abstractions differ after rollback", round, sub)
			}
			checkDigests(fmt.Sprintf("round %d sub %d after rollback", round, sub))
		}
		a.Release(cp)
		for i := 0; i < 8; i++ {
			mutateAdapter(a, rng)
		}
	}
	if part.repeats == 0 {
		t.Fatal("no rendering recurred: the equal half of the partition went unchecked")
	}
}

// TestClassifyOp spot-checks the per-opcode classifier the metrics
// attribution rides on.
func TestClassifyOp(t *testing.T) {
	a := adapterSystem(t)
	cases := []struct{ op, want string }{
		{"kernel:handler", "kernel"},
		{"idle", "idle"},
		{"field-irq:tty0", "field-irq"},
		{"user:red@0040:unfetchable", "user:unfetchable"},
		{"user:red@0040:zzzz", "user"}, // unparsable instruction word
		{"user:red@0040:0800", "user:MOV"},
		{"user:red@0040:fc00", "user:OP63"}, // an opcode with no mnemonic
	}
	for _, tc := range cases {
		if got := a.ClassifyOp(model.OpID(tc.op)); got != tc.want {
			t.Fatalf("ClassifyOp(%q) = %q, want %q", tc.op, got, tc.want)
		}
	}
	// A user op with a hex instruction word buckets by decoded mnemonic:
	// "user:<MNEMONIC>", never the raw PC-bearing OpID.
	got := a.ClassifyOp("user:red@0040:1234")
	if len(got) <= len("user:") || got[:5] != "user:" || got == "user:red@0040:1234" {
		t.Fatalf("ClassifyOp(user:red@0040:1234) = %q, want a user:<mnemonic> bucket", got)
	}
	// The live system's own NextOp must classify via the OpClassifier hook.
	op := a.NextOp()
	if cl := model.OpClass(a, op); cl != a.ClassifyOp(op) {
		t.Fatalf("OpClass(%q) = %q, ClassifyOp = %q", op, cl, a.ClassifyOp(op))
	}
}
