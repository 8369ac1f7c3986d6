package kernel_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/verifysys"
)

// randomInputPins holds, per seed, the EncodeInput bytes of the first five
// RandomInput draws on the honest verifysys system. Witness stores persist
// these bytes, so a change to the stimulus generator or to the codec that
// moves any of them breaks every stored witness.
var randomInputPins = map[int64][]string{
	1: {`{}`, `{"tty0":[118,2]}`, `{"tty0":[88,144]}`, `{"tty0":[95]}`, `{"tty0":[176,53]}`},
	2: {`{}`, `{"tty0":[177]}`, `{}`, `{}`, `{}`},
	3: {`{}`, `{}`, `{"tty0":[67]}`, `{"tty0":[186]}`, `{"tty0":[68,157]}`},
}

func TestRandomInputEncodingPinned(t *testing.T) {
	a, err := verifysys.Build(verifysys.ProbeFor(kernel.Leaks{}), kernel.Leaks{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var got []string
		for n := 0; n < 5; n++ {
			in := a.RandomInput(rng)
			b, err := a.EncodeInput(in)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, string(b))
			dec, err := a.DecodeInput(b)
			if err != nil {
				t.Fatalf("seed %d input %d: %v", seed, n, err)
			}
			for _, c := range append(a.Colours(), kernel.KernelColour) {
				if x, y := a.ExtractInput(c, dec), a.ExtractInput(c, in); x != y {
					t.Errorf("seed %d input %d colour %s: decoded extracts %q, original %q", seed, n, c, x, y)
				}
			}
		}
		if !reflect.DeepEqual(got, randomInputPins[seed]) {
			t.Errorf("seed %d: EncodeInput bytes %q, pinned %q", seed, got, randomInputPins[seed])
		}
	}
}

// An empty output still renders its owner's entry, and nobody else's.
func TestEmptyOutputExtract(t *testing.T) {
	a, err := verifysys.Build(verifysys.ProbeFor(kernel.Leaks{}), kernel.Leaks{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := a.CurrentOutput()
	for _, c := range append(a.Colours(), kernel.KernelColour) {
		want := ""
		if c == "worker" {
			want = "tty0=;"
		}
		if got := a.ExtractOutput(c, out); got != want {
			t.Errorf("colour %s: empty output extracts %q, want %q", c, got, want)
		}
	}
}

// drawLog is a model.Rand that records every draw: Intn(arg) returned
// val, or (arg 0) Uint32 returned val.
type drawLog struct {
	src   *rand.Rand
	draws [][2]int
}

func (r *drawLog) Intn(n int) int {
	v := r.src.Intn(n)
	r.draws = append(r.draws, [2]int{n, v})
	return v
}

func (r *drawLog) Uint32() uint32 {
	v := r.src.Uint32()
	r.draws = append(r.draws, [2]int{0, int(v)})
	return v
}

// multiDeviceAdapter builds a system whose regimes own different input
// sinks and output sources, with one sink and one source left unowned, so
// that ownership decides which stimuli are kept and which are drawn.
func multiDeviceAdapter(t *testing.T) *kernel.Adapter {
	t.Helper()
	m := machine.New(0x4000)
	tty0, tty1, tty2 := machine.NewTTY("tty0", 1), machine.NewTTY("tty1", 1), machine.NewTTY("tty2", 1)
	clk, lp := machine.NewClock("clk", 5), machine.NewPrinter("lp", 1)
	for _, d := range []machine.Device{tty0, clk, tty1, lp, tty2} {
		m.Attach(d)
	}
	k, err := kernel.New(m, kernel.Config{
		Regimes: []kernel.RegimeSpec{
			{Name: "a", Base: 0x1000, Size: 0x400, Image: prog(t, senderSrc),
				Devices: []machine.Device{tty0, clk}},
			{Name: "b", Base: 0x2000, Size: 0x400, Image: prog(t, receiverSrc),
				Devices: []machine.Device{tty1}},
			{Name: "c", Base: 0x3000, Size: 0x400, Image: prog(t, receiverSrc)},
		},
		Channels: []kernel.ChannelSpec{{Name: "ab", From: "a", To: "b", Capacity: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return kernel.NewAdapter(k)
}

// deviceOwners maps each owned device name to its regime's colour.
func deviceOwners(a *kernel.Adapter) map[string]model.Colour {
	owner := map[string]model.Colour{}
	for _, r := range a.K.Config().Regimes {
		for _, d := range r.Devices {
			owner[d.Name()] = model.Colour(r.Name)
		}
	}
	return owner
}

// oracleRandomInputMatching is the map-based stimulus generator the
// adapter's bus-indexed one replaced: c's stimuli are copied from orig,
// every other input sink draws a coin and, on heads, one or two words.
// With keep false it is the old RandomInput, which draws for every sink.
func oracleRandomInputMatching(a *kernel.Adapter, c model.Colour, keep bool, orig map[string][]machine.Word, r model.Rand) map[string][]machine.Word {
	owner := deviceOwners(a)
	out := map[string][]machine.Word{}
	for _, d := range a.K.Machine().Devices() {
		if _, ok := d.(machine.InputSink); !ok {
			continue
		}
		name := d.Name()
		if keep && owner[name] == c {
			if ws, ok := orig[name]; ok {
				out[name] = append([]machine.Word(nil), ws...)
			}
			continue
		}
		if r.Intn(3) == 0 {
			ws := make([]machine.Word, 1+r.Intn(2))
			for j := range ws {
				ws[j] = machine.Word(r.Uint32() & 0xff)
			}
			out[name] = ws
		}
	}
	return out
}

// stimuliByName lists an adapter input's stimuli by device name.
func stimuliByName(a *kernel.Adapter, in model.Input) map[string][]machine.Word {
	out := map[string][]machine.Word{}
	if in == nil {
		return out
	}
	devs := a.K.Machine().Devices()
	for j, ws := range in.(kernel.InputVec) {
		if ws != nil {
			out[devs[j].Name()] = ws
		}
	}
	return out
}

// oracleExtract is the name-sorted rendering extract replaced.
func oracleExtract(a *kernel.Adapter, c model.Colour, vec map[string][]machine.Word) string {
	owner := deviceOwners(a)
	var names []string
	for name := range vec {
		if owner[name] == c {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		b = append(append(b, name...), '=')
		for _, w := range vec[name] {
			b = append(b, "0123456789abcdef"[w>>12&0xF], "0123456789abcdef"[w>>8&0xF],
				"0123456789abcdef"[w>>4&0xF], "0123456789abcdef"[w&0xF])
		}
		b = append(b, ';')
	}
	return string(b)
}

// The stimulus generators make the same draws, in the same order with the
// same arguments, and produce the same stimuli per device as the map-based
// oracle: for RandomInput, and for RandomInputMatching on every colour, the
// kernel pseudo-colour and a nil input. Extraction agrees with the
// name-sorted oracle.
func TestRandomInputMatchesOracle(t *testing.T) {
	a := multiDeviceAdapter(t)
	cols := append(a.Colours(), kernel.KernelColour)
	check := func(what string, seed int64, gen func(model.Rand) model.Input,
		oracle func(model.Rand) map[string][]machine.Word) model.Input {
		t.Helper()
		r1 := &drawLog{src: rand.New(rand.NewSource(seed))}
		r2 := &drawLog{src: rand.New(rand.NewSource(seed))}
		in := gen(r1)
		want := oracle(r2)
		if !reflect.DeepEqual(r1.draws, r2.draws) {
			t.Fatalf("%s seed %d: draws %v, oracle %v", what, seed, r1.draws, r2.draws)
		}
		got := stimuliByName(a, in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d: stimuli %v, oracle %v", what, seed, got, want)
		}
		for _, c := range cols {
			if x, y := a.ExtractInput(c, in), oracleExtract(a, c, want); x != y {
				t.Fatalf("%s seed %d colour %s: extracts %q, oracle %q", what, seed, c, x, y)
			}
		}
		return in
	}
	owner := deviceOwners(a)
	kept := 0
	for seed := int64(0); seed < 200; seed++ {
		orig := check("RandomInput", seed, a.RandomInput,
			func(r model.Rand) map[string][]machine.Word {
				return oracleRandomInputMatching(a, "", false, nil, r)
			})
		for _, c := range cols {
			for _, i := range []model.Input{orig, nil} {
				in := check("RandomInputMatching("+string(c)+")", seed,
					func(r model.Rand) model.Input { return a.RandomInputMatching(c, i, r) },
					func(r model.Rand) map[string][]machine.Word {
						return oracleRandomInputMatching(a, c, true, stimuliByName(a, i), r)
					})
				for name := range stimuliByName(a, in) {
					if i != nil && owner[name] == c {
						kept++
					}
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("no colour ever kept a stimulus: the matching half went unchecked")
	}

	// A draw that gives no sink a stimulus is the empty InputVec: it encodes
	// as "{}", extracts "" for every colour and applies as a plain tick.
	empties := 0
	for seed := int64(0); seed < 200; seed++ {
		in := a.RandomInput(rand.New(rand.NewSource(seed)))
		if len(stimuliByName(a, in)) > 0 {
			continue
		}
		empties++
		if enc, err := a.EncodeInput(in); err != nil || string(enc) != "{}" {
			t.Fatalf("seed %d: empty draw encodes %q, %v; want {}", seed, enc, err)
		}
		for _, c := range cols {
			if x := a.ExtractInput(c, in); x != "" {
				t.Fatalf("seed %d colour %s: empty draw extracts %q", seed, c, x)
			}
		}
		ref := a.Save()
		a.ApplyInput(in)
		got, _ := a.EncodeState(a.Save())
		a.Restore(ref)
		a.ApplyInput(nil)
		want, _ := a.EncodeState(a.Save())
		a.Restore(ref)
		if string(got) != string(want) {
			t.Fatalf("seed %d: applying the empty draw is not a plain tick", seed)
		}
	}
	if empties == 0 {
		t.Fatal("no seed drew an empty input: the empty case went unchecked")
	}

	// Outputs: empty and written ones, extracted per colour as the oracle
	// renders them.
	for round := 0; round < 3; round++ {
		want := map[string][]machine.Word{}
		for _, d := range a.K.Machine().Devices() {
			if src, ok := d.(machine.OutputSource); ok {
				want[d.Name()] = src.AppendOutput(nil)
			}
		}
		out := a.CurrentOutput()
		for _, c := range cols {
			if x, y := a.ExtractOutput(c, out), oracleExtract(a, c, want); x != y {
				t.Fatalf("round %d colour %s: output extracts %q, oracle %q", round, c, x, y)
			}
		}
		for i, d := range a.K.Machine().Devices() {
			switch d := d.(type) {
			case *machine.TTY:
				d.WriteReg(3, machine.Word(0x41+round+i))
			case *machine.Printer:
				d.WriteReg(1, machine.Word(0x61+round))
			}
		}
		a.ApplyInput(nil)
		a.ApplyInput(nil)
	}
}
