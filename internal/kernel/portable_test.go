package kernel_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/verifysys"
)

// Adapter states and inputs must survive the Portable round trip exactly:
// a decoded state restores to the same abstractions and the same future
// behaviour, and a decoded input is extract-identical to the original.
func TestAdapterPortableRoundTrip(t *testing.T) {
	a := adapterSystem(t)
	var port model.Portable = a

	rng := rand.New(rand.NewSource(7))
	a.Randomize(rng)
	ref := a.Save()
	phiA, phiB := a.Abstract("a"), a.Abstract("b")

	b, err := port.EncodeState(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Disturb the live system, then restore through the codec.
	a.Randomize(rng)
	got, err := port.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	a.Restore(got)
	if a.Abstract("a") != phiA || a.Abstract("b") != phiB {
		t.Fatal("decoded state has different abstractions")
	}
	// Equal futures from the decoded state.
	for i := 0; i < 20; i++ {
		a.ApplyInput(nil)
		a.Step()
	}
	after := a.Abstract("a") + a.Abstract("b")
	a.Restore(ref)
	for i := 0; i < 20; i++ {
		a.ApplyInput(nil)
		a.Step()
	}
	if a.Abstract("a")+a.Abstract("b") != after {
		t.Error("decoded state diverged from original under stepping")
	}

	// Inputs: nil maps to no bytes and back to nil; a random InputVec
	// round-trips extract-identically for every colour.
	if eb, err := port.EncodeInput(nil); err != nil || eb != nil {
		t.Fatalf("EncodeInput(nil) = %v, %v", eb, err)
	}
	if in, err := port.DecodeInput(nil); err != nil || in != nil {
		t.Fatalf("DecodeInput(nil) = %v, %v", in, err)
	}
	in := a.RandomInput(rng)
	ib, err := port.EncodeInput(in)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := port.DecodeInput(ib)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Colours() {
		if a.ExtractInput(c, in2) != a.ExtractInput(c, in) {
			t.Errorf("decoded input differs for colour %s", c)
		}
	}
}

func TestAdapterDecodeStateRejectsGarbage(t *testing.T) {
	a := adapterSystem(t)
	if _, err := a.DecodeState(nil); err == nil {
		t.Error("decoded empty state")
	}
	if _, err := a.DecodeState([]byte{2}); err == nil {
		t.Error("decoded state with bad death flag")
	}
	if _, err := a.DecodeState([]byte{0, 1, 2, 3}); err == nil {
		t.Error("decoded state with garbage snapshot")
	}
	if _, err := a.DecodeInput([]byte("{")); err == nil {
		t.Error("decoded truncated input JSON")
	}
}

// A well-formed snapshot that does not fit the machine or the kernel is
// refused at decode time rather than left to panic in Restore or Step.
func TestDecodeStateRejectsMisfit(t *testing.T) {
	a, err := verifysys.Build(verifysys.ProbeFor(kernel.Leaks{}), kernel.Leaks{}, false)
	if err != nil {
		t.Fatal(err)
	}
	a.Randomize(rand.New(rand.NewSource(3)))
	for _, tc := range []struct {
		name string
		bend func(s *machine.Snapshot)
		want string
	}{
		{"short RAM", func(s *machine.Snapshot) { s.RAM = s.RAM[:16] }, "RAM 16 words"},
		{"extra device", func(s *machine.Snapshot) { s.Devices = append(s.Devices, nil) }, "2 devices"},
		{"no devices", func(s *machine.Snapshot) { s.Devices = nil }, "0 devices"},
		{"3-word TTY", func(s *machine.Snapshot) { s.Devices[0] = s.Devices[0][:3] }, `"tty0" state has 3 words`},
		{"TTY counts past its end", func(s *machine.Snapshot) { s.Devices[0][8] = 5 }, `"tty0" state has`},
		{"no such current regime", func(s *machine.Snapshot) { s.RAM[kernel.SchedCurrentAddr()] = 3 }, "current regime 3 of 3"},
		{"zero channel capacity", func(s *machine.Snapshot) { s.RAM[kernel.ChannelAreaBase(3)+3] = 0 }, `channel "wp" capacity 0`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := a.K.Machine().Snapshot()
			tc.bend(s)
			sb, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			_, err = a.DecodeState(append([]byte{0}, sb...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeState error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// DecodeInput accepts only names of this machine's input sinks.
func TestDecodeInputRejectsNonSinks(t *testing.T) {
	a := multiDeviceAdapter(t)
	for _, tc := range []struct{ in, want string }{
		{`{"tty9":[1]}`, `"tty9" is not an input sink`},
		{`{"lp":[1]}`, `"lp" is not an input sink`},
		{`{"clk":[1],"tty0":[2]}`, `"clk" is not an input sink`},
	} {
		if _, err := a.DecodeInput([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeInput(%s) error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
	in, err := a.DecodeInput([]byte(`{"tty1":[1],"tty2":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ExtractInput("b", in); got != "tty1=0001;" {
		t.Errorf("decoded tty1 stimulus extracts %q", got)
	}
}

// FuzzDecodeState: arbitrary bytes either fail to decode, or decode to a
// state that restores and then steps without a panic. The corpus is seeded
// with a state captured from a randomized run.
func FuzzDecodeState(f *testing.F) {
	a, err := verifysys.Build(verifysys.ProbeFor(kernel.Leaks{}), kernel.Leaks{}, false)
	if err != nil {
		f.Fatal(err)
	}
	a.Randomize(rand.New(rand.NewSource(11)))
	seed, err := a.EncodeState(a.Save())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, err := a.DecodeState(data)
		if err != nil {
			return
		}
		a.Restore(ref)
		for i := 0; i < 50; i++ {
			a.ApplyInput(nil)
			a.Step()
		}
	})
}
