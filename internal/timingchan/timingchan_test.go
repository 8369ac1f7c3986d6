package timingchan_test

import (
	"testing"

	"repro/internal/separability"
	"repro/internal/timingchan"
)

func TestTimingChannelCarriesBits(t *testing.T) {
	res, _, err := timingchan.Run(64, 11, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("receiver did not finish; decoded %d bits", len(res.Decoded))
	}
	if res.Covert.ErrorRate > 0.05 {
		t.Errorf("timing channel error rate %.2f; the scheduling channel should be nearly clean",
			res.Covert.ErrorRate)
	}
	if res.Covert.CapacityPerSymbol < 0.8 {
		t.Errorf("timing channel capacity %.3f b/sym, expected ~1", res.Covert.CapacityPerSymbol)
	}
	t.Logf("timing channel: %s", res.Covert)
}

// The demonstration that matters: the very system that just moved bits
// between regimes with NO channels configured passes Proof of
// Separability — the six conditions do not, and per the paper's own
// scoping should not, see wall-clock scheduling channels. The scheduling
// extension does not flag it either, correctly: the kernel's *decisions*
// are untainted; only their durations differ.
func TestTimingChannelInvisibleToSixConditions(t *testing.T) {
	_, sys, err := timingchan.Run(16, 11, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	opt := separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 3, CheckScheduling: true}
	res := separability.CheckRandomized(sys, opt)
	if !res.Passed() {
		t.Fatalf("separability flagged the timing-channel system: %s — the model boundary moved?",
			res.Summary())
	}
	t.Logf("bits flowed, yet: %s", res.Summary())
}

func TestThresholdMatters(t *testing.T) {
	// With a hopeless threshold the channel degrades toward noise.
	res, _, err := timingchan.Run(64, 11, 60, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covert.ErrorRate < 0.2 {
		t.Errorf("absurd threshold still decoded cleanly (err %.2f)?", res.Covert.ErrorRate)
	}
}

// The extension that closes the channel: under fixed time slices every
// rotation takes identical wall-clock time, so the receiver's clock deltas
// carry (nearly) nothing — while the kernel still passes separability and
// ordinary workloads still run.
func TestFixedSlicesCloseTheTimingChannel(t *testing.T) {
	res, _, err := timingchan.RunFixed(64, 11, 60, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("receiver did not finish under fixed slices; decoded %d bits", len(res.Decoded))
	}
	if res.Covert.CapacityPerSymbol > 0.1 {
		t.Errorf("fixed slices left %.3f b/sym of timing channel (err %.2f)",
			res.Covert.CapacityPerSymbol, res.Covert.ErrorRate)
	}
	t.Logf("fixed-slice residual: %s", res.Covert)
}

func TestFixedSliceKernelPassesSeparability(t *testing.T) {
	_, sys, err := timingchan.RunFixed(8, 11, 60, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	opt := separability.Options{Trials: 5, StepsPerTrial: 60, Seed: 3, CheckScheduling: true}
	res := separability.CheckRandomized(sys, opt)
	if !res.Passed() {
		for i, v := range res.Violations {
			if i > 3 {
				break
			}
			t.Logf("violation: %s", v)
		}
		t.Fatalf("fixed-slice kernel failed separability: %s", res.Summary())
	}
}
