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

// abstractAll renders the full per-colour Φ table; it never goes through
// the digest cache, so it is the ground truth the cached digests must
// agree with.
func abstractAll(a *kernel.Adapter) map[model.Colour]string {
	out := map[model.Colour]string{}
	for _, c := range a.Colours() {
		out[c] = a.Abstract(c)
	}
	return out
}

// TestCheckpointRollbackMatchesRestore is the adapter-level differential
// test: Checkpoint/Rollback must land on exactly the machine state and Φ
// abstractions a full snapshot recorded, across repeated rollbacks.
func TestCheckpointRollbackMatchesRestore(t *testing.T) {
	a := adapterSystem(t)
	rng := rand.New(rand.NewSource(11))
	a.Randomize(rng)

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
			}
			a.Rollback(cp)
			if !a.K.Machine().Snapshot().Equal(ref) {
				t.Fatalf("round %d sub %d: rolled-back machine state differs from snapshot", round, sub)
			}
			if got := abstractAll(a); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d sub %d: Φ abstractions differ after rollback", round, sub)
			}
		}
		a.Release(cp)
		for i := 0; i < 8; i++ {
			mutateAdapter(a, rng)
		}
	}
}

// TestIncrementalDigestMatchesOracle pins the digest cache against its
// oracles: at every point of a checkpointed random walk, AbstractDigest
// (which may serve a cached, incrementally-validated value) must equal the
// fingerprint of a fresh gather, and pass the equality-partition
// differential against the freshly rendered Φ strings.
func TestIncrementalDigestMatchesOracle(t *testing.T) {
	a := adapterSystem(t)
	rng := rand.New(rand.NewSource(23))
	a.Randomize(rng)
	colours := a.Colours()
	part := newPhiPartition()

	check := func(step string) {
		t.Helper()
		for _, c := range colours {
			got := a.AbstractDigest(c)
			if want := a.GatheredDigest(c); got != want {
				t.Fatalf("%s: AbstractDigest(%s) = %#x, fresh gather = %#x", step, c, got, want)
			}
			if err := part.check(c, got, a.Abstract(c)); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	}

	check("before checkpoint")
	for round := 0; round < 6; round++ {
		cp := a.Checkpoint()
		if cp == nil {
			t.Fatal("Checkpoint returned nil")
		}
		for sub := 0; sub < 3; sub++ {
			for i := 0; i < 25; i++ {
				mutateAdapter(a, rng)
				if i%5 == 0 {
					check(fmt.Sprintf("round %d sub %d step %d", round, sub, i))
				}
			}
			check(fmt.Sprintf("round %d sub %d before rollback", round, sub))
			a.Rollback(cp)
			check(fmt.Sprintf("round %d sub %d after rollback", round, sub))
		}
		a.Release(cp)
		check(fmt.Sprintf("round %d after release", round))
		for i := 0; i < 5; i++ {
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
