package separability_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// These tests verify the real SUE-Go kernel with the standard verification
// system of package verifysys (worker + peer + probe regimes).

func build(t testing.TB, probe string, leaks kernel.Leaks, cut bool) *kernel.Adapter {
	t.Helper()
	sys, err := verifysys.Build(probe, leaks, cut)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHonestCutKernelPassesSeparability(t *testing.T) {
	for _, probe := range []struct{ name, src string }{
		{"plain", verifysys.ProbePlain},
		{"combined", verifysys.ProbeCombined},
		{"scratch", verifysys.ProbeScratch},
		{"overlap", verifysys.ProbeOverlap},
	} {
		t.Run(probe.name, func(t *testing.T) {
			sys := build(t, probe.src, kernel.Leaks{}, true)
			opt := separability.Options{
				Trials: 6, StepsPerTrial: 80, Seed: 42, CheckScheduling: true,
			}
			res := separability.CheckRandomized(sys, opt)
			if !res.Passed() {
				for i, v := range res.Violations {
					if i > 4 {
						break
					}
					t.Logf("violation: %s", v)
				}
				t.Fatalf("honest cut kernel failed: %s", res.Summary())
			}
			for _, c := range []separability.Condition{
				separability.Condition1, separability.Condition2,
				separability.Condition3, separability.Condition6,
			} {
				if res.Checks[c] == 0 {
					t.Errorf("%s was never exercised", c)
				}
			}
		})
	}
}

func TestUncutKernelShowsConfiguredChannelFlows(t *testing.T) {
	// With channels NOT cut, information legitimately flows worker->probe
	// and probe->worker, so isolation checking must fail — that failure is
	// what motivates the cutting transformation (paper, section 4).
	sys := build(t, verifysys.ProbePlain, kernel.Leaks{}, false)
	opt := separability.Options{Trials: 6, StepsPerTrial: 80, Seed: 42}
	res := separability.CheckRandomized(sys, opt)
	if res.Passed() {
		t.Fatal("uncut kernel passed isolation checking; the configured channels should register as flows")
	}
	t.Logf("uncut flows registered as: %v", res.ViolatedConditions())
}

func TestLeakyKernelsCaught(t *testing.T) {
	cases := []struct {
		name  string
		leaks kernel.Leaks
		sched bool // requires the scheduling extension
	}{
		{"RegisterLeak", kernel.Leaks{RegisterLeak: true}, false},
		{"PartitionOverlap", kernel.Leaks{PartitionOverlap: true}, false},
		{"SharedScratch", kernel.Leaks{SharedScratch: true}, false},
		{"InterruptMisroute", kernel.Leaks{InterruptMisroute: true}, false},
		{"ChannelAlias", kernel.Leaks{ChannelAlias: true}, false},
		{"OutputCopy", kernel.Leaks{OutputCopy: true}, false},
		{"SchedulerSnoop", kernel.Leaks{SchedulerSnoop: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := build(t, verifysys.ProbeFor(tc.leaks), tc.leaks, true)
			opt := separability.Options{
				Trials: 10, StepsPerTrial: 100, Seed: 99,
				CheckScheduling: tc.sched,
			}
			res := separability.CheckRandomized(sys, opt)
			if res.Passed() {
				t.Fatalf("leak %s was NOT caught by separability checking", tc.name)
			}
			t.Logf("%s caught: %v", tc.name, res.ViolatedConditions())
			if tc.sched {
				found := false
				for _, c := range res.ViolatedConditions() {
					if c == separability.ConditionSched {
						found = true
					}
				}
				if !found {
					t.Errorf("SchedulerSnoop should trip the scheduling extension; got %v",
						res.ViolatedConditions())
				}
			}
			// A perturbation defect would invalidate the whole run.
			for _, v := range res.Violations {
				if v.Condition == separability.ConditionMeta {
					t.Errorf("meta violation (adapter defect): %s", v)
				}
			}
		})
	}
}

func TestSchedulerSnoopInvisibleToSixConditions(t *testing.T) {
	// The paper scopes scheduling/denial-of-service out of its security
	// model ("denial of service is not a security problem", section 3).
	// SchedulerSnoop demonstrates that boundary: the literal six
	// conditions do not see it.
	sys := build(t, verifysys.ProbePlain, kernel.Leaks{SchedulerSnoop: true}, true)
	opt := separability.Options{Trials: 8, StepsPerTrial: 80, Seed: 11}
	res := separability.CheckRandomized(sys, opt)
	if !res.Passed() {
		t.Fatalf("six conditions unexpectedly flagged the pure scheduling channel: %s",
			res.Summary())
	}
}

// The kernel adapter's native AbstractDigest is an in-memory fingerprint,
// not a hash of the Abstract string, so it is checked as an
// equality-partition differential: within one colour, two digests must be
// equal exactly when the renderings are. The states are randomly sampled
// reachable ones (the adapter state space cannot be enumerated, so this
// samples the distribution the randomized checker visits), each with a
// twin perturbed outside a random colour, which must keep that colour's
// rendering and so its digest.
func TestAdapterDigestMatchesAbstract(t *testing.T) {
	type digestKey struct {
		c   model.Colour
		dig uint64
	}
	type phiKey struct {
		c   model.Colour
		phi string
	}
	for _, cut := range []bool{true, false} {
		sys := build(t, verifysys.ProbePlain, kernel.Leaks{}, cut)
		byDigest := map[digestKey]string{}
		byPhi := map[phiKey]uint64{}
		repeats := 0
		observe := func(c model.Colour) {
			t.Helper()
			str, dig := sys.Abstract(c), sys.AbstractDigest(c)
			if prev, ok := byDigest[digestKey{c, dig}]; ok && prev != str {
				t.Fatalf("cut=%v colour %s: digest %x stands for two renderings", cut, c, dig)
			}
			if prev, ok := byPhi[phiKey{c, str}]; ok {
				if prev != dig {
					t.Fatalf("cut=%v colour %s: one rendering has digests %x and %x", cut, c, prev, dig)
				}
				repeats++
			}
			byDigest[digestKey{c, dig}] = str
			byPhi[phiKey{c, str}] = dig
		}
		rng := rand.New(rand.NewSource(23))
		colours := sys.Colours()
		for trial := 0; trial < 4; trial++ {
			sys.Randomize(rng)
			for step := 0; step < 40; step++ {
				if step%5 == 0 {
					sys.ApplyInput(sys.RandomInput(rng))
				} else {
					sys.ApplyInput(nil)
				}
				for _, c := range colours {
					observe(c)
				}
				st := sys.Save()
				c := colours[rng.Intn(len(colours))]
				sys.PerturbOutside(c, rng)
				observe(c)
				sys.Restore(st)
				sys.Step()
			}
		}
		if repeats == 0 {
			t.Fatalf("cut=%v: no rendering recurred: the equal half went unchecked", cut)
		}
	}
}

// Adapter.Clone must produce a replica that (a) agrees with the original
// on every colour's abstract state, and (b) evolves independently.
func TestAdapterCloneIndependence(t *testing.T) {
	sys := build(t, verifysys.ProbePlain, kernel.Leaks{}, true)
	rng := rand.New(rand.NewSource(3))
	sys.Randomize(rng)

	clone, ok := sys.Clone().(*kernel.Adapter)
	if !ok || clone == nil {
		t.Fatal("adapter Clone failed on a replicable device set")
	}
	for _, c := range sys.Colours() {
		if clone.Abstract(c) != sys.Abstract(c) {
			t.Fatalf("clone disagrees on Φ^%s immediately after cloning", c)
		}
	}
	if clone.NextOp() != sys.NextOp() {
		t.Fatalf("clone selects %q where original selects %q", clone.NextOp(), sys.NextOp())
	}

	// Lock in the clone's view, advance only the original.
	before := map[model.Colour]string{}
	for _, c := range clone.Colours() {
		before[c] = clone.Abstract(c)
	}
	for i := 0; i < 25; i++ {
		sys.ApplyInput(nil)
		sys.Step()
	}
	for _, c := range clone.Colours() {
		if got := clone.Abstract(c); got != before[c] {
			t.Errorf("stepping the original moved the clone's Φ^%s", c)
		}
	}

	// Identical stimuli from identical states must keep them in lockstep
	// (the clone is a real machine, not a stale view).
	clone2, _ := sys.Clone().(*kernel.Adapter)
	if clone2 == nil {
		t.Fatal("second clone failed")
	}
	for i := 0; i < 25; i++ {
		sys.ApplyInput(nil)
		sys.Step()
		clone2.ApplyInput(nil)
		clone2.Step()
	}
	for _, c := range sys.Colours() {
		if sys.Abstract(c) != clone2.Abstract(c) {
			t.Errorf("lockstep broke for colour %s", c)
		}
	}
}

// Worker-count determinism on the real kernel: the acceptance bar is
// byte-identical Summary() output (and in fact identical violation lists)
// between the serial and parallel engines for a fixed seed.
func TestKernelParallelDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		leaks kernel.Leaks
	}{
		{"honest", kernel.Leaks{}},
		{"RegisterLeak", kernel.Leaks{RegisterLeak: true}},
		{"SharedScratch", kernel.Leaks{SharedScratch: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := separability.Options{
				Trials: 6, StepsPerTrial: 60, Seed: 42, CheckScheduling: true,
			}
			opt.Workers = 1
			serial := separability.CheckRandomized(
				build(t, verifysys.ProbeFor(tc.leaks), tc.leaks, true), opt)
			for _, workers := range []int{2, 5} {
				opt.Workers = workers
				par := separability.CheckRandomized(
					build(t, verifysys.ProbeFor(tc.leaks), tc.leaks, true), opt)
				if serial.Summary() != par.Summary() {
					t.Fatalf("workers=%d: summary diverged:\n  serial:   %s\n  parallel: %s",
						workers, serial.Summary(), par.Summary())
				}
				if !reflect.DeepEqual(serial.Violations, par.Violations) {
					t.Fatalf("workers=%d: violation lists diverged", workers)
				}
				if !reflect.DeepEqual(serial.Checks, par.Checks) {
					t.Fatalf("workers=%d: check counts diverged: %v vs %v",
						workers, serial.Checks, par.Checks)
				}
			}
		})
	}
}

// Seed robustness: the honest kernel must pass for every exploration seed
// (a seed-dependent false positive would make the checker useless).
func TestHonestKernelManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 12; seed++ {
		sys := build(t, verifysys.ProbePlain, kernel.Leaks{}, true)
		res := separability.CheckRandomized(sys, separability.Options{
			Trials: 3, StepsPerTrial: 50, Seed: seed, CheckScheduling: true,
		})
		if !res.Passed() {
			t.Fatalf("seed %d: honest kernel failed: %s", seed, res.Summary())
		}
	}
}

// The scheduling extension catches SchedulerSnoop at every seed where
// checking only the first step after c's operation missed it: two seeds of
// a 12,000-seed scan at sepverify's default budget, and the five derived
// checker seeds of randomized_registry requests that reported a wrong
// verdict. Each seed passed wrongly before the extension stepped the twin
// to c's next scheduling decision.
func TestSchedulerSnoopCaughtAtFormerlyMissedSeeds(t *testing.T) {
	spec := verifysys.SpecFor("SchedulerSnoop", true, false)
	for _, seed := range []int64{9308, 9439,
		8210202092412363934, 2488432118453293752, -5423923631358976601,
		6013240820941838186, 6241648297686680038} {
		sys, err := verifysys.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := separability.CheckRandomized(sys, separability.Options{Trials: 10, StepsPerTrial: 100,
			InputEvery: 8, CheckScheduling: true, Seed: seed, Workers: 1})
		if res.Passed() {
			t.Errorf("seed %d: SchedulerSnoop passed: %s", seed, res.Summary())
		}
	}
}
