// Package verifysys provides the standard SUE-Go verification
// configuration shared by the test suite, the sepverify tool and the
// benchmark harness: three regimes that together exercise every kernel
// service, so randomized Proof-of-Separability checking reaches the code
// paths where each fault-injected leak lives.
//
//   - worker owns a TTY, handles its interrupts, and talks on both
//     channels;
//   - peer is a plain compute loop with a distinctive register pattern;
//   - probe pokes at an address-space hole. Under an honest kernel every
//     probe faults at its first poke and dies — harmlessly; under the
//     corresponding leak it lives and generates flows the checker must see.
package verifysys

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/witness"
)

// WorkerSrc is the device-owning regime program.
const WorkerSrc = `
	.org 0x40
start:
	MOV #isr, @0x10
	MOV #0x40, @DEV0     ; TTY: enable receive interrupts
	TRAP #IRQON
	MOV #0, R2
loop:
	ADD #1, R2
	MOV R2, @0x0         ; distinctive partition-base word
	MOV R2, @0x20
	MOV @DEV0+1, R3      ; poll RDATA so the receiver keeps presenting
	MOV #0, R0           ; channel 0: worker -> probe
	MOV R2, R1
	TRAP #SEND
	MOV #1, R0           ; channel 1: probe -> worker
	TRAP #RECV
	TRAP #SWAP
	BR loop
isr:
	MOV @DEV0+1, R1
	MOV R1, @DEV0+3      ; echo
	RTI
`

// PeerSrc is the plain compute regime program.
const PeerSrc = `
	.org 0x40
start:
	MOV #0x1111, R5
	MOV #0, R2
loop:
	ADD #1, R2
	MOV R2, @0x0
	MOV R2, @0x20
	ADD #1, R5
	TRAP #SWAP
	BR loop
`

// ProbeScratch reads the kernel scratch word through segment 13.
const ProbeScratch = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV @0xD000, R5      ; read the kernel scratch word (segment 13)
	ADD R5, R4
	MOV R4, @0x20
	MOV R4, @0x0
	TRAP #SWAP
	BR loop
`

// ProbeOverlap reads and writes the neighbour's partition through
// segment 12.
const ProbeOverlap = `
	.org 0x40
start:
	MOV #0, R4
loop:
	ADD #1, R4
	MOV @0xC000, R5      ; read the neighbour's partition word (segment 12)
	ADD R5, R4
	MOV R4, @0xC000      ; and write it back, perturbed
	TRAP #SWAP
	BR loop
`

// ProbePlain exercises channels and swaps without probing anything.
const ProbePlain = `
	.org 0x40
start:
	MOV #0, R4
loop:
	ADD #1, R4
	MOV R4, @0x0
	MOV R4, @0x20
	MOV #1, R0
	MOV R4, R1
	TRAP #SEND           ; channel 1: probe -> worker
	MOV #0, R0
	TRAP #RECV           ; channel 0: worker -> probe
	TRAP #SWAP
	BR loop
`

// ProbeCombined pokes both holes; it exists to show the honest kernel
// contains probes harmlessly.
const ProbeCombined = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV @0xD000, R5
	ADD R5, R4
	MOV R4, @0xC000
	MOV R4, @0x20
	TRAP #SWAP
	BR loop
`

// ProbeFor returns the probe program best suited to detecting a leak set.
func ProbeFor(l kernel.Leaks) string {
	switch {
	case l.SharedScratch:
		return ProbeScratch
	case l.PartitionOverlap:
		return ProbeOverlap
	default:
		return ProbePlain
	}
}

// SpecFor describes the standard verification system built with the given
// leak name (empty = honest) and channel cut, as the witness subsystem
// records it. The third parameter is ignored: it is kept for bench/, which
// compiles against this signature; drop it together with its uses there.
func SpecFor(leakName string, cut, _ bool) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", Leak: leakName, Cut: cut}
}

// standardLayout is the declared form of a spec with no regimes: 0x2000
// words of RAM; worker (owning TTY tty0), peer and probe in 0x200-word
// partitions at 0x400, 0x600 and 0x800; and the channels wp (worker ->
// probe) and pw (probe -> worker) of 48 words each.
func standardLayout(spec witness.SystemSpec, probe string) witness.SystemSpec {
	spec.RAM = 0x2000
	spec.Regimes = standardRegimes[probe]
	if spec.Regimes == nil {
		spec.Regimes = regimesWith(probe)
	}
	spec.Channels = standardChannels
	return spec
}

func regimesWith(probe string) []witness.RegimeSpec {
	return []witness.RegimeSpec{
		{Name: "worker", Source: WorkerSrc, Size: 0x200,
			Devices: []witness.DeviceSpec{{Kind: "tty", Name: "tty0", Param: 2}}},
		{Name: "peer", Source: PeerSrc, Size: 0x200},
		{Name: "probe", Source: probe, Size: 0x200},
	}
}

// The standard layout's parts shared read-only by every expansion: the
// regimes with each probe ProbeFor picks, built once so that expanding a
// spec allocates nothing, and the channels.
var (
	standardRegimes = map[string][]witness.RegimeSpec{
		ProbePlain:   regimesWith(ProbePlain),
		ProbeScratch: regimesWith(ProbeScratch),
		ProbeOverlap: regimesWith(ProbeOverlap),
	}
	standardChannels = []witness.ChannelSpec{
		{Name: "wp", From: "worker", To: "probe", Capacity: 48},
		{Name: "pw", From: "probe", To: "worker", Capacity: 48},
	}
)

// FromSpec builds and boots the system a spec describes and returns its
// adapter. Kind must be "verifysys"; the leak name must be one of
// kernel.AllLeaks (or empty for the honest kernel). A spec with no regimes
// is the standard layout, whose probe is ProbeFor the leak.
func FromSpec(spec witness.SystemSpec) (*kernel.Adapter, error) {
	if spec.Kind != "verifysys" {
		return nil, fmt.Errorf("verifysys: unknown system kind %q", spec.Kind)
	}
	var leaks kernel.Leaks
	if spec.Leak != "" {
		l, ok := kernel.AllLeaks()[spec.Leak]
		if !ok {
			return nil, fmt.Errorf("verifysys: unknown leak %q", spec.Leak)
		}
		leaks = l
	}
	if len(spec.Regimes) == 0 {
		spec = standardLayout(spec, ProbeFor(leaks))
	}
	return build(spec, leaks)
}

// Build boots the standard verification system with the given probe
// program, leak set, and channel-cutting choice, returning its adapter.
func Build(probe string, leaks kernel.Leaks, cut bool) (*kernel.Adapter, error) {
	return build(standardLayout(witness.SystemSpec{Kind: "verifysys", Cut: cut}, probe), leaks)
}

// build assembles every regime of a declared spec, packs the partitions
// upward from kernel.KernelEnd, attaches each regime's devices in
// declaration order, and boots the kernel with the given leak set.
func build(spec witness.SystemSpec, leaks kernel.Leaks) (*kernel.Adapter, error) {
	ram := spec.RAM
	if ram == 0 {
		ram = machine.DefaultRAMWords
	}
	m := machine.New(ram)
	cfg := kernel.Config{
		Regimes:     make([]kernel.RegimeSpec, 0, len(spec.Regimes)),
		Channels:    make([]kernel.ChannelSpec, 0, len(spec.Channels)),
		CutChannels: spec.Cut,
		FixedSlice:  spec.FixedSlice,
		Leaks:       leaks,
	}
	base := kernel.KernelEnd
	links := map[string][2]machine.Device{}
	for _, r := range spec.Regimes {
		im, err := asm.Assemble(kernel.Prelude + r.Source)
		if err != nil {
			return nil, fmt.Errorf("verifysys: regime %q: %w", r.Name, err)
		}
		size := machine.Word(r.Size)
		if size == 0 {
			size = 0x800
		}
		devs, err := regimeDevices(r, links)
		if err != nil {
			return nil, err
		}
		for _, d := range devs {
			m.Attach(d)
		}
		cfg.Regimes = append(cfg.Regimes, kernel.RegimeSpec{
			Name: r.Name, Base: base, Size: size, Image: im, Devices: devs})
		base += size
	}
	for _, c := range spec.Channels {
		name := c.Name
		if name == "" {
			name = c.From + "->" + c.To
		}
		cfg.Channels = append(cfg.Channels, kernel.ChannelSpec{
			Name: name, From: c.From, To: c.To, Capacity: c.Capacity})
	}
	k, err := kernel.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := k.Boot(); err != nil {
		return nil, err
	}
	return kernel.NewAdapter(k), nil
}

// Devices constructs the devices each regime declares, in declaration
// order, as FromSpec attaches them. A "link-tx" and a "link-rx" device of
// the same name are the two ends of one link of capacity Param, whichever
// regimes own them.
func Devices(regimes []witness.RegimeSpec) ([][]machine.Device, error) {
	out := make([][]machine.Device, len(regimes))
	links := map[string][2]machine.Device{}
	for i, r := range regimes {
		devs, err := regimeDevices(r, links)
		if err != nil {
			return nil, err
		}
		out[i] = devs
	}
	return out, nil
}

// regimeDevices constructs r's devices; links holds the link ends made so
// far, by link name.
func regimeDevices(r witness.RegimeSpec, links map[string][2]machine.Device) ([]machine.Device, error) {
	var devs []machine.Device
	for _, d := range r.Devices {
		var dev machine.Device
		switch d.Kind {
		case "tty":
			dev = machine.NewTTY(d.Name, d.Param)
		case "clock":
			dev = machine.NewClock(d.Name, d.Param)
		case "printer":
			dev = machine.NewPrinter(d.Name, d.Param)
		case "link-tx", "link-rx":
			ends, ok := links[d.Name]
			if !ok {
				tx, rx := machine.NewLink(d.Name, d.Param)
				ends = [2]machine.Device{tx, rx}
				links[d.Name] = ends
			}
			dev = ends[0]
			if d.Kind == "link-rx" {
				dev = ends[1]
			}
		default:
			return nil, fmt.Errorf("verifysys: regime %q: unknown device kind %q", r.Name, d.Kind)
		}
		devs = append(devs, dev)
	}
	return devs, nil
}
