package separability_test

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/separability"
)

// requireIdentical asserts two results are indistinguishable: same summary
// bytes, same violations in the same order, same check counts.
func requireIdentical(t *testing.T, want, got *separability.Result, label string) {
	t.Helper()
	if want.Summary() != got.Summary() {
		t.Errorf("%s: summaries differ:\n  serial:   %s\n  parallel: %s",
			label, want.Summary(), got.Summary())
	}
	if !reflect.DeepEqual(want.Violations, got.Violations) {
		t.Errorf("%s: violation lists differ: %d vs %d entries",
			label, len(want.Violations), len(got.Violations))
	}
	if !reflect.DeepEqual(want.Checks, got.Checks) {
		t.Errorf("%s: check counts differ: %v vs %v", label, want.Checks, got.Checks)
	}
}

// The tentpole determinism guarantee: CheckRandomized with Workers: 1 and
// Workers: N produce identical violation sets and check counts for a fixed
// seed, on both a secure and a leaky system.
func TestCheckRandomizedWorkerDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant separability.ToyVariant
	}{
		{"secure", separability.ToySecure},
		{"leaky-direct-write", separability.ToyDirectWrite},
		{"leaky-nextop", separability.ToyNextOpLeak},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 99} {
				base := separability.Options{
					Trials: 12, StepsPerTrial: 40, Seed: seed, CheckScheduling: true,
				}
				serialOpt := base
				serialOpt.Workers = 1
				serial := separability.CheckRandomized(
					separability.NewToySystem(tc.variant), serialOpt)
				for _, workers := range []int{2, 4, 9} {
					parOpt := base
					parOpt.Workers = workers
					par := separability.CheckRandomized(
						separability.NewToySystem(tc.variant), parOpt)
					requireIdentical(t, serial, par, tc.name)
				}
			}
		})
	}
}

// The exhaustive verdict must be a pure function of the system, independent of
// how many workers shard the state sweep and the per-colour passes.
func TestCheckExhaustiveWorkerDeterminism(t *testing.T) {
	variants := []separability.ToyVariant{
		separability.ToySecure, separability.ToyCovertStore,
		separability.ToyInputSnoop, separability.ToyOutputLeak,
	}
	for _, v := range variants {
		name := separability.ToyVariantName(v)
		serial := prove(t, separability.NewToySystem(v), 0, 1)
		for _, workers := range []int{2, 4} {
			par := prove(t, separability.NewToySystem(v), 0, workers)
			requireIdentical(t, serial, par, name)
		}
	}
}

// Digest-vs-string equivalence over the enumerated toy state space: for
// every state and colour, AbstractDigest must collide exactly when the
// Abstract strings are equal. (The toy system goes through the default
// hash-the-string shim, so this checks FNV-1a injectivity on the space the
// calibration proofs rely on; the kernel adapter's native fingerprint has
// its own equality-partition test, TestAdapterDigestMatchesAbstract.)
func TestToyDigestMatchesAbstract(t *testing.T) {
	for v := separability.ToySecure; v <= separability.ToyNextOpLeak; v++ {
		sys := separability.NewToySystem(v)
		byDigest := map[uint64]string{}
		byString := map[string]uint64{}
		sys.EnumerateStates(func(ref model.StateRef) bool {
			sys.Restore(ref)
			for _, c := range sys.Colours() {
				str := sys.Abstract(c)
				dig := model.AbstractDigest(sys, c)
				if dig != model.DigestString(str) {
					t.Fatalf("variant %d: digest %x is not the FNV of %q",
						v, dig, str)
				}
				if prev, ok := byDigest[dig]; ok && prev != str {
					t.Fatalf("variant %d: digest collision: %q and %q both hash to %x",
						v, prev, str, dig)
				}
				if prev, ok := byString[str]; ok && prev != dig {
					t.Fatalf("variant %d: string %q produced digests %x and %x",
						v, str, prev, dig)
				}
				byDigest[dig] = str
				byString[str] = dig
			}
			return true
		})
		if len(byDigest) != len(byString) {
			t.Errorf("variant %d: %d digests for %d distinct strings",
				v, len(byDigest), len(byString))
		}
	}
}

// A clone must be a genuinely independent replica: advancing the original
// must not move the clone, and both must accept each other's StateRefs.
func TestToyCloneIndependence(t *testing.T) {
	orig := separability.NewToySystem(separability.ToySecure)
	clone, ok := orig.Clone().(*separability.ToySystem)
	if !ok || clone == nil {
		t.Fatal("toy Clone did not return a *ToySystem")
	}
	before := map[model.Colour]string{}
	for _, c := range clone.Colours() {
		before[c] = clone.Abstract(c)
	}
	for i := 0; i < 5; i++ {
		orig.Step()
	}
	for _, c := range clone.Colours() {
		if got := clone.Abstract(c); got != before[c] {
			t.Errorf("stepping the original moved the clone's Φ^%s: %q -> %q",
				c, before[c], got)
		}
	}
	// Cross-instance StateRefs: restore the original's state on the clone.
	ref := orig.Save()
	clone.Restore(ref)
	for _, c := range clone.Colours() {
		if clone.Abstract(c) != orig.Abstract(c) {
			t.Errorf("clone did not accept the original's StateRef for colour %s", c)
		}
	}
}

// Result.Merge must append violations in order and sum check counts, so
// the engines can merge worker-private results deterministically.
func TestResultMerge(t *testing.T) {
	bad := separability.NewToySystem(separability.ToyDirectWrite)
	a := prove(t, bad, 3, 0)
	b := prove(t, separability.NewToySystem(separability.ToySecure), 0, 0)
	var merged separability.Result
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(nil) // must be a no-op
	if len(merged.Violations) != len(a.Violations)+len(b.Violations) {
		t.Errorf("merged %d violations, want %d",
			len(merged.Violations), len(a.Violations)+len(b.Violations))
	}
	for c, n := range a.Checks {
		if merged.Checks[c] != n+b.Checks[c] {
			t.Errorf("merged count for %s = %d, want %d",
				separability.Condition(c), merged.Checks[c], n+b.Checks[c])
		}
	}
}
