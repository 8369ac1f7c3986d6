// Package core is the library façade: it assembles the pieces of the
// reproduction — the SM11 machine, the SUE-Go separation kernel, and the
// Proof-of-Separability checker — behind a declarative builder, so that
// examples, tools and downstream users can stand up a verified
// separation-kernel system in a few lines:
//
//	b := core.NewBuilder()
//	b.Regime("red", redSrc).Regime("black", blackSrc)
//	b.Channel("red", "black", 16)
//	sys, err := b.Build()
//	sys.Run(10000)
//	report := sys.Verify(core.VerifyOptions{Seed: 1})
//
// Component-level (distributed) systems are assembled directly with the
// distsys/workstation/snfe/guard packages; core covers the machine-level
// story, which is the paper's central contribution.
package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/separability"
)

// regimeDecl collects one Regime call.
type regimeDecl struct {
	name    string
	source  string
	size    machine.Word
	devices []machine.Device
}

// Builder declaratively configures a separation-kernel system. Partition
// bases are allocated automatically, packed upward from the kernel area.
type Builder struct {
	ramWords   int
	regimes    []regimeDecl
	channels   []kernel.ChannelSpec
	cut        bool
	leaks      kernel.Leaks
	fixedSlice int
	devices    []machine.Device
	err        error
}

// NewBuilder starts a configuration with the default RAM size.
func NewBuilder() *Builder { return &Builder{ramWords: machine.DefaultRAMWords} }

// RAM sets the machine's RAM size in words.
func (b *Builder) RAM(words int) *Builder {
	b.ramWords = words
	return b
}

// Regime adds a regime running the given assembly source (the kernel ABI
// prelude is prepended automatically). The default partition is 0x800
// words; override with RegimeSized.
func (b *Builder) Regime(name, source string, devices ...machine.Device) *Builder {
	return b.RegimeSized(name, source, 0x800, devices...)
}

// RegimeSized adds a regime with an explicit partition size in words.
func (b *Builder) RegimeSized(name, source string, size machine.Word, devices ...machine.Device) *Builder {
	b.regimes = append(b.regimes, regimeDecl{name: name, source: source, size: size, devices: devices})
	b.devices = append(b.devices, devices...)
	return b
}

// Channel declares a unidirectional kernel-mediated channel.
func (b *Builder) Channel(from, to string, capacity int) *Builder {
	b.channels = append(b.channels, kernel.ChannelSpec{
		Name: from + "->" + to, From: from, To: to, Capacity: capacity})
	return b
}

// CutChannels applies the paper's channel-cutting transformation, for
// isolation verification.
func (b *Builder) CutChannels() *Builder {
	b.cut = true
	return b
}

// WithLeaks compiles deliberate separation violations into the kernel
// (fault injection for the verifier).
func (b *Builder) WithLeaks(l kernel.Leaks) *Builder {
	b.leaks = l
	return b
}

// WithFixedSlice switches the kernel from run-until-SWAP to fixed time
// slices of n machine cycles (closing the scheduling/timing channel at
// the cost of idle time).
func (b *Builder) WithFixedSlice(n int) *Builder {
	b.fixedSlice = n
	return b
}

// System is a built, booted separation-kernel system.
type System struct {
	Machine *machine.Machine
	Kernel  *kernel.Kernel
	Adapter *kernel.Adapter
}

// Build assembles every regime, lays out partitions, boots the kernel and
// returns the running system.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.regimes) == 0 {
		return nil, fmt.Errorf("core: no regimes declared")
	}
	m := machine.New(b.ramWords)
	for _, d := range b.devices {
		m.Attach(d)
	}
	cfg := kernel.Config{Channels: b.channels, CutChannels: b.cut, Leaks: b.leaks,
		FixedSlice: b.fixedSlice}
	base := kernel.KernelEnd
	for _, r := range b.regimes {
		im, err := asm.Assemble(kernel.Prelude + r.source)
		if err != nil {
			return nil, fmt.Errorf("core: regime %q: %w", r.name, err)
		}
		cfg.Regimes = append(cfg.Regimes, kernel.RegimeSpec{
			Name: r.name, Base: base, Size: r.size, Image: im, Devices: r.devices,
		})
		base += r.size
	}
	k, err := kernel.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := k.Boot(); err != nil {
		return nil, err
	}
	return &System{Machine: m, Kernel: k, Adapter: kernel.NewAdapter(k)}, nil
}

// MustBuild is Build for static configurations.
func (b *Builder) MustBuild() *System {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// SetTracer attaches t to both the kernel (context switches, syscalls,
// interrupt routing, channel traffic, faults) and the machine's device
// phase (interrupt raises); nil detaches both. Tracing is observational
// only: it never perturbs the modelled state or any verification outcome.
func (s *System) SetTracer(t obs.Tracer) {
	s.Kernel.SetTracer(t)
	s.Machine.SetEventTracer(t)
}

// RegimeNames returns the configured regime names in index order (the
// lane labels a Chrome trace writer wants).
func (s *System) RegimeNames() []string {
	var names []string
	for _, r := range s.Kernel.Config().Regimes {
		names = append(names, r.Name)
	}
	return names
}

// Run steps the system n cycles.
func (s *System) Run(n int) int { return s.Kernel.Run(n) }

// RunUntilIdle runs until every regime is dead or waiting.
func (s *System) RunUntilIdle(max int) int { return s.Kernel.RunUntilIdle(max) }

// VerifyOptions tunes Verify.
type VerifyOptions struct {
	Trials          int
	StepsPerTrial   int
	Seed            int64
	CheckScheduling bool
	// Workers shards trials across checker goroutines, each on a replica
	// of the system (0 = one worker per CPU core, 1 = single-threaded;
	// results are identical for any value).
	Workers int
}

// Verify runs Proof of Separability against the system (rebooting it as
// part of state-space exploration — do not interleave with Run).
func (s *System) Verify(opt VerifyOptions) *separability.Result {
	o := separability.Options{
		Trials:          opt.Trials,
		StepsPerTrial:   opt.StepsPerTrial,
		Seed:            opt.Seed,
		CheckScheduling: opt.CheckScheduling,
		Workers:         opt.Workers,
	}
	return separability.CheckRandomized(s.Adapter, o)
}

// RegimeWord reads one word of a regime's memory (for assertions and
// demos).
func (s *System) RegimeWord(name string, vaddr machine.Word) (machine.Word, bool) {
	i := s.Kernel.RegimeIndex(name)
	if i < 0 {
		return 0, false
	}
	return s.Kernel.ReadRegimeMem(i, vaddr)
}

// Stats returns kernel activity counters.
func (s *System) Stats() kernel.Stats { return s.Kernel.Stats() }
