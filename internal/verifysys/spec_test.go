package verifysys_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/separability"
	"repro/internal/timingchan"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

const counterSrc = `
	.org 0x40
start:
	MOV #0, R2
loop:
	ADD #1, R2
	MOV R2, @0x20
	TRAP #SWAP
	BR loop
`

const senderSrc = `
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	TRAP #SWAP
	BR loop
`

const receiverSrc = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
yield:
	TRAP #SWAP
	BR loop
`

// txrx declares a sender and a receiver joined by one channel.
func txrx(cut bool, leak string) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", Leak: leak, Cut: cut,
		Regimes: []witness.RegimeSpec{
			{Name: "tx", Source: senderSrc, Size: 0x200},
			{Name: "rx", Source: receiverSrc, Size: 0x200},
		},
		Channels: []witness.ChannelSpec{{From: "tx", To: "rx", Capacity: 8}}}
}

func mustBoot(t *testing.T, spec witness.SystemSpec) *kernel.Adapter {
	t.Helper()
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// bootState encodes the boot state of the system spec declares.
func bootState(t *testing.T, spec witness.SystemSpec) []byte {
	t.Helper()
	sys := mustBoot(t, spec)
	b, err := sys.EncodeState(sys.Save())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFromSpecDeclaredSystem(t *testing.T) {
	k := mustBoot(t, witness.SystemSpec{Kind: "verifysys", Regimes: []witness.RegimeSpec{
		{Name: "a", Source: counterSrc},
		{Name: "b", Source: counterSrc},
	}}).K
	k.Run(1000)
	if k.Dead() {
		t.Fatalf("kernel died: %v", k.Cause)
	}
	for _, name := range []string{"a", "b"} {
		if v, ok := k.RegimeWord(name, 0x20); !ok || v < 5 {
			t.Errorf("regime %s progressed only to %d", name, v)
		}
	}
	// Partitions pack upward from the kernel area; 0x800 words by default.
	if r := k.Config().Regimes; r[0].Base != kernel.KernelEnd || r[1].Base != kernel.KernelEnd+0x800 {
		t.Errorf("partition bases %#x, %#x", r[0].Base, r[1].Base)
	}
}

func TestFromSpecChannels(t *testing.T) {
	k := mustBoot(t, txrx(false, "")).K
	k.Run(5000)
	if v, _ := k.RegimeWord("rx", 0x20); v == 0 {
		t.Error("no data crossed the channel")
	}
	if k.Stats().Swaps == 0 {
		t.Error("no swaps recorded")
	}
	if name := k.Config().Channels[0].Name; name != "tx->rx" {
		t.Errorf("default channel name %q", name)
	}
}

func TestFromSpecCutChannels(t *testing.T) {
	k := mustBoot(t, txrx(true, "")).K
	k.Run(5000)
	if v, _ := k.RegimeWord("rx", 0x20); v != 0 {
		t.Errorf("cut channel delivered %d", v)
	}
}

func TestFromSpecVerifyHonestAndLeaky(t *testing.T) {
	res := separability.CheckRandomized(mustBoot(t, txrx(true, "")),
		separability.Options{Trials: 4, StepsPerTrial: 50, Seed: 3})
	if !res.Passed() {
		t.Errorf("honest system failed verification: %s", res.Summary())
	}
	res = separability.CheckRandomized(mustBoot(t, txrx(true, "OutputCopy")),
		separability.Options{Trials: 6, StepsPerTrial: 80, Seed: 3})
	found := false
	for _, c := range res.ViolatedConditions() {
		found = found || c == separability.Condition2
	}
	if !found {
		t.Errorf("OutputCopy leak: want condition 2, got %s", res.Summary())
	}
}

func TestFromSpecErrors(t *testing.T) {
	regime := func(src string, devs ...witness.DeviceSpec) []witness.RegimeSpec {
		return []witness.RegimeSpec{{Name: "a", Source: src, Devices: devs}}
	}
	for name, spec := range map[string]witness.SystemSpec{
		"unknown kind":       {Kind: "nope"},
		"unknown leak":       {Kind: "verifysys", Leak: "nope"},
		"unassemblable":      {Kind: "verifysys", Regimes: regime("BOGUS")},
		"unknown device":     {Kind: "verifysys", Regimes: regime(counterSrc, witness.DeviceSpec{Kind: "nope"})},
		"channel to nowhere": {Kind: "verifysys", Regimes: regime(counterSrc), Channels: []witness.ChannelSpec{{From: "a", To: "nobody", Capacity: 4}}},
	} {
		if _, err := verifysys.FromSpec(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFromSpecDevice(t *testing.T) {
	echo := `
	.org 0x40
start:
	MOV @DEV0, R0
	AND #1, R0
	BEQ yield
	MOV @DEV0+1, R1
	MOV R1, @DEV0+3
yield:
	TRAP #SWAP
	BR start
`
	k := mustBoot(t, witness.SystemSpec{Kind: "verifysys", Regimes: []witness.RegimeSpec{
		{Name: "io", Source: echo, Devices: []witness.DeviceSpec{{Kind: "tty", Name: "tty0", Param: 1}}},
		{Name: "other", Source: counterSrc},
	}}).K
	tty := k.Machine().Devices()[0].(*machine.TTY)
	tty.InjectString("ok")
	k.Run(5000)
	if got := tty.OutputString(); got != "ok" {
		t.Errorf("device echo = %q", got)
	}
}

// A spec with no regimes is the standard layout: it encodes to exactly the
// bytes recorded before specs could declare a layout, and it boots to the
// same state as the layout written out in full.
func TestStandardSpecBytesAndExpansion(t *testing.T) {
	for spec, want := range map[*witness.SystemSpec]string{
		{Kind: "verifysys", Cut: true}:                        `{"kind":"verifysys","cut":true}`,
		{Kind: "verifysys", Leak: "SharedScratch", Cut: true}: `{"kind":"verifysys","leak":"SharedScratch","cut":true}`,
	} {
		got, err := json.Marshal(*spec)
		if err != nil || string(got) != want {
			t.Errorf("encoded %s (%v), want %s", got, err, want)
		}
	}
	tty := []witness.DeviceSpec{{Kind: "tty", Name: "tty0", Param: 2}}
	for _, leak := range []string{"", "SharedScratch", "PartitionOverlap"} {
		var leaks kernel.Leaks
		if leak != "" {
			leaks = kernel.AllLeaks()[leak]
		}
		declared := witness.SystemSpec{Kind: "verifysys", Leak: leak, Cut: true, RAM: 0x2000,
			Regimes: []witness.RegimeSpec{
				{Name: "worker", Source: verifysys.WorkerSrc, Size: 0x200, Devices: tty},
				{Name: "peer", Source: verifysys.PeerSrc, Size: 0x200},
				{Name: "probe", Source: verifysys.ProbeFor(leaks), Size: 0x200},
			},
			Channels: []witness.ChannelSpec{
				{Name: "wp", From: "worker", To: "probe", Capacity: 48},
				{Name: "pw", From: "probe", To: "worker", Capacity: 48},
			}}
		if !bytes.Equal(bootState(t, verifysys.SpecFor(leak, true, false)), bootState(t, declared)) {
			t.Errorf("leak %q: the standard spec and its declared layout boot differently", leak)
		}
	}
}

// Every system the ported callers build survives JSON encode → decode →
// FromSpec with an identical boot state.
func TestSpecRoundTrip(t *testing.T) {
	alice := []machine.Word{blockstore.Put(1, 0x11), blockstore.Get(1)}
	bob := []machine.Word{blockstore.Put(17, 0x22), blockstore.Get(17)}
	tc := timingchan.Config{NBits: 16, Seed: 11, Busy: 60, Threshold: 40}
	tcFixed := tc
	tcFixed.FixedSlice = 200
	for name, spec := range map[string]witness.SystemSpec{
		"blockstore":       blockstore.Spec(alice, bob, false),
		"blockstore-cut":   blockstore.Spec(alice, bob, true),
		"timingchan":       timingchan.Spec(tc),
		"timingchan-fixed": timingchan.Spec(tcFixed),
		"txrx-OutputCopy":  txrx(true, "OutputCopy"),
		"standard-RegLeak": verifysys.SpecFor("RegisterLeak", true, false),
		"standard-uncut":   verifysys.SpecFor("", false, false),
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back witness.SystemSpec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !back.Equal(spec) {
				t.Fatalf("decoded spec differs:\n%+v\n%+v", back, spec)
			}
			if !bytes.Equal(bootState(t, spec), bootState(t, back)) {
				t.Error("boot states differ after the round trip")
			}
		})
	}
}

// ExampleFromSpec declares two isolated regimes, runs them, verifies the
// kernel, then plants a leak in the kernel and catches it.
func ExampleFromSpec() {
	count := `
	.org 0x40
start:
	MOV #0, R5
loop:
	ADD #1, R5
	MOV R5, @0x20
	TRAP #SWAP
	BR loop
`
	spec := witness.SystemSpec{Kind: "verifysys", Regimes: []witness.RegimeSpec{
		{Name: "red", Source: count, Size: 0x200},
		{Name: "black", Source: count, Size: 0x200},
	}}
	sys, _ := verifysys.FromSpec(spec)
	sys.K.Run(1000)
	r, _ := sys.K.RegimeWord("red", 0x20)
	b, _ := sys.K.RegimeWord("black", 0x20)
	fmt.Println("both made progress:", r > 50 && b > 50)

	honest := separability.CheckRandomized(sys, separability.Options{Trials: 4, StepsPerTrial: 40, Seed: 1})
	fmt.Println("honest kernel verifies:", honest.Passed())

	spec.Leak = "RegisterLeak"
	leaky, _ := verifysys.FromSpec(spec)
	report := separability.CheckRandomized(leaky, separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 1})
	fmt.Println("register-leak kernel verifies:", report.Passed())
	// Output:
	// both made progress: true
	// honest kernel verifies: true
	// register-leak kernel verifies: false
}
