package separability_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// violationPins holds, per standard verification system (leak × channel
// cut), the FNV-1a digest of every violation CheckRandomized reports under
// violationPinOptions: condition, colour, op, trial, step, Want, Got and
// Detail. Want and Got leave the process in witnesses, shard records and
// sepwatch ledgers, so they are pinned as literals, independently of how
// the checker compares Φ^c in memory.
var violationPins = map[string]uint64{
	"/cut=false":                  0x41813951a4b9c47a,
	"/cut=true":                   0xcbf29ce484222325,
	"ChannelAlias/cut=false":      0x37fc077ea8b8a668,
	"ChannelAlias/cut=true":       0x650ebbb06e173da0,
	"InterruptMisroute/cut=false": 0xa39c862ffcc80541,
	"InterruptMisroute/cut=true":  0xacc4c6f51f47f0a7,
	"OutputCopy/cut=false":        0x929fea1c153a83a0,
	"OutputCopy/cut=true":         0xb51bbb069ef73754,
	"PartitionOverlap/cut=false":  0x7fbec3dc97a695f8,
	"PartitionOverlap/cut=true":   0x56e086bf21c61731,
	"RegisterLeak/cut=false":      0x11f4c4a006af00fe,
	"RegisterLeak/cut=true":       0x36b0f4e39d8b621c,
	"SchedulerSnoop/cut=false":    0xf5e43771ea0475db,
	"SchedulerSnoop/cut=true":     0x718a3094867a2046,
	"SharedScratch/cut=false":     0x16acb3248922243e,
	"SharedScratch/cut=true":      0x89de422df2745e09,
}

// violationPinCount is the number of violations those digests cover at one
// worker, so that a pin cannot pass vacuously.
const violationPinCount = 263

var violationPinOptions = separability.Options{
	Trials: 6, StepsPerTrial: 80, Seed: 7, InputEvery: 8, CheckScheduling: true,
}

// violationDigest folds every field of every violation into one digest.
func violationDigest(vs []separability.Violation) uint64 {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%d|%s|%s|%d|%d|%016x|%016x|%s\n",
			v.Condition, v.Colour, v.Op, v.Trial, v.Step, v.Want, v.Got, v.Detail)
	}
	return model.DigestString(b.String())
}

// TestViolationDigestsPinned pins the persisted violation values of the
// randomized checker over the honest kernel and every planted leak, cut and
// uncut, at one and two workers. On failure it logs the digests it
// computed; adopt them only for a deliberate change to what the checker
// reports, which also invalidates persisted witnesses and ledgers.
func TestViolationDigestsPinned(t *testing.T) {
	names := []string{""}
	for name := range kernel.AllLeaks() {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]uint64{}
	total := 0
	for _, leak := range names {
		for _, cut := range []bool{false, true} {
			key := fmt.Sprintf("%s/cut=%v", leak, cut)
			for _, workers := range []int{1, 2} {
				sys, err := verifysys.FromSpec(verifysys.SpecFor(leak, cut, false))
				if err != nil {
					t.Fatal(err)
				}
				opt := violationPinOptions
				opt.Workers = workers
				res := separability.CheckRandomized(sys, opt)
				dig := violationDigest(res.Violations)
				if workers == 1 {
					got[key] = dig
					total += len(res.Violations)
				} else if dig != got[key] {
					t.Errorf("%s: workers=2 digest %016x, workers=1 %016x", key, dig, got[key])
				}
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&table, "\t%q: 0x%016x,\n", key, got[key])
		if want, ok := violationPins[key]; !ok || want != got[key] {
			t.Errorf("%s: violation digest %016x, pinned %016x", key, got[key], want)
		}
	}
	if total != violationPinCount {
		t.Errorf("%d violations at workers=1, pinned %d", total, violationPinCount)
	}
	if t.Failed() {
		t.Logf("recorded digests (%d violations at workers=1):\n%s", total, table.String())
	}
}
