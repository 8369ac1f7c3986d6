package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// encodingPins holds, per standard verification system (leak × channel
// cut), the FNV-1a digest of every value the adapter renders along a fixed
// seeded walk: NextOp IDs, DigestString(Abstract(c)) and the ExtractInput/
// ExtractOutput strings of every colour. These strings land in witnesses,
// shard files and ledgers, so the values are pinned as literals: any change
// to the canonical encoding, however small, fails here.
var encodingPins = map[string]uint64{
	"/cut=false":                  0xa3794ad25286ee2f,
	"/cut=true":                   0x3c83a296fc8b77a4,
	"ChannelAlias/cut=false":      0xd4f2682c54aceada,
	"ChannelAlias/cut=true":       0xef194f64a75ea570,
	"InterruptMisroute/cut=false": 0x64db027643352590,
	"InterruptMisroute/cut=true":  0x9bde1a25a5566596,
	"OutputCopy/cut=false":        0xa2c0098e8c800b3e,
	"OutputCopy/cut=true":         0x2be6487c187671d1,
	"PartitionOverlap/cut=false":  0x591e9675fe01f2a8,
	"PartitionOverlap/cut=true":   0x91ca618f29269d63,
	"RegisterLeak/cut=false":      0x52acc1c732a2bbab,
	"RegisterLeak/cut=true":       0x4adf985c8c7d614d,
	"SchedulerSnoop/cut=false":    0x8fe8b0e48578794a,
	"SchedulerSnoop/cut=true":     0x10c8d273d9d06a62,
	"SharedScratch/cut=false":     0x42ef4869172201e3,
	"SharedScratch/cut=true":      0xc5c331c0520097b6,
}

// phiPartition is the equality-partition differential between the
// adapter's in-memory Φ digests and its canonical renderings: within one
// colour, two AbstractDigest values must be equal exactly when the two
// Abstract strings are. repeats counts observations whose rendering had
// been seen before, so a caller can tell the equal half was exercised.
type phiPartition struct {
	byDigest map[phiDigestKey]string
	byPhi    map[phiStringKey]uint64
	repeats  int
}

type phiDigestKey struct {
	c   model.Colour
	dig uint64
}

type phiStringKey struct {
	c   model.Colour
	phi string
}

func newPhiPartition() *phiPartition {
	return &phiPartition{byDigest: map[phiDigestKey]string{}, byPhi: map[phiStringKey]uint64{}}
}

// check records that colour c's Φ rendered as phi and digested to dig, and
// reports a disagreement with any earlier observation.
func (p *phiPartition) check(c model.Colour, dig uint64, phi string) error {
	if prev, ok := p.byDigest[phiDigestKey{c, dig}]; ok && prev != phi {
		return fmt.Errorf("colour %s: digest %016x stands for two renderings (FNV %016x, %016x)",
			c, dig, model.DigestString(prev), model.DigestString(phi))
	}
	if prev, ok := p.byPhi[phiStringKey{c, phi}]; ok {
		if prev != dig {
			return fmt.Errorf("colour %s: one rendering (FNV %016x) has digests %016x and %016x",
				c, model.DigestString(phi), prev, dig)
		}
		p.repeats++
	}
	p.byDigest[phiDigestKey{c, dig}] = phi
	p.byPhi[phiStringKey{c, phi}] = dig
	return nil
}

// encodingWalk drives a seeded Step/ApplyInput walk over sys and folds
// every rendered value into one digest. Every tenth state is also recorded
// perturbed outside a random colour, the way the checkers build twin
// states: inside a delta checkpoint whose pristine digests were taken
// first, then rolled back. Every AbstractDigest along the walk, twins
// included, must pass the equality-partition differential against
// Abstract. The walk reports the OpID classes it reached.
func encodingWalk(t *testing.T, sys *kernel.Adapter, seed int64, steps int) (uint64, map[string]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := sys.Colours()
	var trace strings.Builder
	classes := map[string]bool{}
	part := newPhiPartition()
	record := func(s int, in model.Input) {
		op := sys.NextOp()
		classes[sys.ClassifyOp(op)] = true
		fmt.Fprintf(&trace, "%d op=%s\n", s, op)
		// CurrentOutput's value is valid only until the next call on the
		// system, so every extract is taken first.
		out := sys.CurrentOutput()
		outs := make([]string, len(cols))
		for ci, c := range cols {
			outs[ci] = sys.ExtractOutput(c, out)
		}
		for ci, c := range cols {
			str := sys.Abstract(c)
			if err := part.check(c, sys.AbstractDigest(c), str); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			fmt.Fprintf(&trace, " %s phi=%016x out=%s in=%s\n", c, model.DigestString(str),
				outs[ci], sys.ExtractInput(c, in))
		}
	}
	for s := 0; s < steps; s++ {
		var in model.Input
		switch r := rng.Intn(16); {
		case r < 12:
			sys.Step()
		case r < 14:
			in = sys.RandomInput(rng)
			sys.ApplyInput(in)
		default:
			sys.ApplyInput(nil)
		}
		record(s, in)
		if s%10 == 0 {
			cp := sys.Checkpoint()
			for _, c := range cols {
				sys.AbstractDigest(c)
			}
			sys.PerturbOutside(cols[rng.Intn(len(cols))], rng)
			record(s, in)
			sys.Release(cp)
		}
	}
	if part.repeats == 0 {
		t.Fatal("no rendering recurred along the walk: the equal half of the partition went unchecked")
	}
	return model.DigestString(trace.String()), classes
}

// TestEncodingPinned pins the adapter's canonical encodings (Φ^c, extract
// strings, OpIDs) for the honest kernel and every planted leak, cut and
// uncut. On failure it logs the digests it computed; adopt them only for a
// deliberate encoding change, which also invalidates persisted witnesses.
func TestEncodingPinned(t *testing.T) {
	names := []string{""}
	for name := range kernel.AllLeaks() {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]uint64{}
	reached := map[string]bool{}
	for _, leak := range names {
		for _, cut := range []bool{false, true} {
			key := fmt.Sprintf("%s/cut=%v", leak, cut)
			sys, err := verifysys.FromSpec(verifysys.SpecFor(leak, cut, false))
			if err != nil {
				t.Fatal(err)
			}
			dig, classes := encodingWalk(t, sys, 1981, 1500)
			got[key] = dig
			for c := range classes {
				reached[c] = true
			}
		}
	}
	var table strings.Builder
	for _, key := range sortedKeys(got) {
		fmt.Fprintf(&table, "\t%q: 0x%016x,\n", key, got[key])
		if want, ok := encodingPins[key]; !ok || want != got[key] {
			t.Errorf("%s: encoding digest %016x, pinned %016x", key, got[key], want)
		}
	}
	if t.Failed() {
		t.Logf("recorded digests:\n%s", table.String())
	}
	// The walk must reach every OpID shape the encoder renders.
	for _, c := range []string{"user", "deliver-irq", "field-irq"} {
		found := false
		for r := range reached {
			if r == c || strings.HasPrefix(r, c+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("walk never reached an OpID of class %q (reached %v)", c, sortedKeys(reached))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestEncodingSpotValues spells out, for the honest kernel, the values the
// folded pins above cover at the walk's last state: the OpID (one user
// instruction, one virtual interrupt delivery), every colour's Φ digest
// and the worker's extracted output.
func TestEncodingSpotValues(t *testing.T) {
	cases := []struct {
		cut    bool
		op     model.OpID
		phi    map[model.Colour]uint64
		output string
	}{
		{false, "user:peer@004c:7400", map[model.Colour]uint64{
			"worker": 0x7711276701139193, "peer": 0xb290b7821b8961e1, "probe": 0xbc4de95f342e8ce3,
		}, "tty0=009d006e001500740041007c00be000900e400eb006a00c9008800e600d600980020009c0015002200b10073003e0001" +
			"0032006a00e20024004900b3000a00b1009d004c002c00d20050008900e500e100030030005a0015009000dc00a2003c00a9" +
			"0007006f00b3002f006d009600cf007b00d6006200f0008b00ee0051;"},
		{true, "deliver-irq:worker:0", map[model.Colour]uint64{
			"worker": 0x4a58ad8bf1eb3554, "peer": 0xd8722a4f06756d72, "probe": 0xe650997c6b4be5bb,
		}, "tty0=009d006e001500740039004d00ac007d002500fa000f00ef002d007700b000a800a6006d004700be009500e10079006d" +
			"00c500c8007d00dc00020060005c003e00a4009100a300c8002c00a100270076003c000b000e004b008800b1009d00da00eb" +
			"0059002800f9009a007a009700f900d6006a0081005b001600c700a8009000da;"},
	}
	for _, tc := range cases {
		sys, err := verifysys.FromSpec(verifysys.SpecFor("", tc.cut, false))
		if err != nil {
			t.Fatal(err)
		}
		encodingWalk(t, sys, 1981, 1500)
		if op := sys.NextOp(); op != tc.op {
			t.Errorf("cut=%v: NextOp = %q, pinned %q", tc.cut, op, tc.op)
		}
		for c, want := range tc.phi {
			if got := model.DigestString(sys.Abstract(c)); got != want {
				t.Errorf("cut=%v: Φ^%s digest %016x, pinned %016x", tc.cut, c, got, want)
			}
		}
		out := sys.CurrentOutput()
		if got := sys.ExtractOutput("worker", out); got != tc.output {
			t.Errorf("cut=%v: worker output %q, pinned %q", tc.cut, got, tc.output)
		}
		if got := sys.ExtractOutput("peer", out); got != "" {
			t.Errorf("cut=%v: peer owns no device but extracts %q", tc.cut, got)
		}
	}
}

// TestClonesRenderIndependently: every replica gathers Φ^c into its own
// scratch vector, so a clone and its original may digest and render
// concurrently; the race detector flags any shared vector (`make race`
// runs this package), and each goroutine's digests must pass the
// equality-partition differential against its renderings. Each system here
// has gathered before it is cloned, so a clone that copied its original's
// vector would share it. The standard system owns one TTY; the
// multi-device one adds more TTYs, a clock, a printer and unowned
// devices, whose replicas must not share buffers either.
func TestClonesRenderIndependently(t *testing.T) {
	build := func() *kernel.Adapter {
		sys, err := verifysys.FromSpec(verifysys.SpecFor("RegisterLeak", true, false))
		if err != nil {
			t.Fatal(err)
		}
		sys.Abstract("worker")
		return sys
	}
	multi := multiDeviceAdapter(t)
	multi.Abstract("a")
	for _, sys := range []*kernel.Adapter{build(), multi} {
		clone, ok := sys.Clone().(*kernel.Adapter)
		if !ok || clone == nil {
			t.Fatal("Clone failed")
		}
		var wg sync.WaitGroup
		errs := make(chan string, 2)
		for _, a := range []*kernel.Adapter{sys, clone} {
			wg.Add(1)
			go func(a *kernel.Adapter) {
				defer wg.Done()
				part := newPhiPartition()
				for i := 0; i < 200; i++ {
					a.Step()
					for _, c := range a.Colours() {
						if err := part.check(c, a.AbstractDigest(c), a.Abstract(c)); err != nil {
							errs <- fmt.Sprintf("step %d: %v", i, err)
							return
						}
					}
				}
			}(a)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}

	// The same through the checker: two workers on the leaky system must
	// reach the one-worker verdict.
	opt := separability.Options{Trials: 4, StepsPerTrial: 40, Seed: 11, CheckScheduling: true, Workers: 1}
	serial := separability.CheckRandomized(build(), opt)
	opt.Workers = 2
	par := separability.CheckRandomized(build(), opt)
	if serial.Passed() {
		t.Fatal("RegisterLeak went undetected")
	}
	if serial.Summary() != par.Summary() || !reflect.DeepEqual(serial.Violations, par.Violations) {
		t.Fatalf("workers=2 diverged from workers=1:\n  %s\n  %s", serial.Summary(), par.Summary())
	}
}
