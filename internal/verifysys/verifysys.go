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
// leak name (empty = honest), channel cut and translation choice, as the
// witness subsystem records it.
func SpecFor(leakName string, cut, noTranslate bool) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", Leak: leakName, Cut: cut,
		NoTranslate: noTranslate}
}

// FromSpec rebuilds the system a witness was captured from. Only the
// "verifysys" kind is known; the leak name must be one of kernel.AllLeaks
// (or empty for the honest kernel).
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
	sys, err := Build(ProbeFor(leaks), leaks, spec.Cut)
	if err != nil {
		return nil, err
	}
	if spec.NoTranslate {
		sys.K.Machine().SetTranslation(false)
	}
	return sys, nil
}

// Build boots the standard verification system with the given probe
// program, leak set, and channel-cutting choice, returning its adapter.
func Build(probe string, leaks kernel.Leaks, cut bool) (*kernel.Adapter, error) {
	m := machine.New(0x2000)
	tty := machine.NewTTY("tty0", 2)
	m.Attach(tty)
	mk := func(src string) (*asm.Image, error) {
		return asm.Assemble(kernel.Prelude + src)
	}
	worker, err := mk(WorkerSrc)
	if err != nil {
		return nil, fmt.Errorf("verifysys: worker: %w", err)
	}
	peer, err := mk(PeerSrc)
	if err != nil {
		return nil, fmt.Errorf("verifysys: peer: %w", err)
	}
	probeIm, err := mk(probe)
	if err != nil {
		return nil, fmt.Errorf("verifysys: probe: %w", err)
	}
	cfg := kernel.Config{
		Regimes: []kernel.RegimeSpec{
			{Name: "worker", Base: 0x0400, Size: 0x200, Image: worker,
				Devices: []machine.Device{tty}},
			{Name: "peer", Base: 0x0600, Size: 0x200, Image: peer},
			{Name: "probe", Base: 0x0800, Size: 0x200, Image: probeIm},
		},
		Channels: []kernel.ChannelSpec{
			{Name: "wp", From: "worker", To: "probe", Capacity: 48},
			{Name: "pw", From: "probe", To: "worker", Capacity: 48},
		},
		CutChannels: cut,
		Leaks:       leaks,
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
