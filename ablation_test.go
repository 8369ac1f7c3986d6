package repro

// Ablation benchmarks: each sweeps one design parameter called out in
// DESIGN.md and reports how the corresponding observable moves. They
// complement the E1..E9 experiment benches in bench_test.go.

import (
	"fmt"
	"testing"

	"repro/internal/distsys"
	"repro/internal/kernel"
	"repro/internal/separability"
	"repro/internal/snfe"
	"repro/internal/timingchan"
	"repro/internal/verifysys"
	"repro/internal/witness"
	"repro/internal/workstation"
)

// BenchmarkAblationDetectionBudget sweeps the randomized checker's
// exploration budget and reports how many of the seven planted leaks are
// caught at each level — the cost/coverage trade of sampling-based
// separability checking.
func BenchmarkAblationDetectionBudget(b *testing.B) {
	budgets := []struct {
		trials, steps int
	}{
		{1, 20}, {2, 40}, {5, 60}, {10, 100},
	}
	for _, budget := range budgets {
		b.Run(fmt.Sprintf("trials=%d_steps=%d", budget.trials, budget.steps), func(b *testing.B) {
			var caught int
			for i := 0; i < b.N; i++ {
				caught = 0
				for _, l := range kernel.AllLeaks() {
					sys, err := verifysys.Build(verifysys.ProbeFor(l), l, true)
					if err != nil {
						b.Fatal(err)
					}
					res := separability.CheckRandomized(sys, separability.Options{
						Trials: budget.trials, StepsPerTrial: budget.steps,
						Seed: 99, CheckScheduling: l.SchedulerSnoop,
					})
					if !res.Passed() {
						caught++
					}
				}
			}
			b.ReportMetric(float64(caught), "leaks-caught-of-7")
		})
	}
}

// BenchmarkAblationKernelQuantum sweeps the kernel-hosted fabric's
// scheduling quantum and verifies deployment indistinguishability (E7)
// survives every granularity — the separation property must not depend on
// how finely the kernel slices time.
func BenchmarkAblationKernelQuantum(b *testing.B) {
	for _, quantum := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("quantum=%d", quantum), func(b *testing.B) {
			var mismatches int
			for i := 0; i < b.N; i++ {
				phys, err := workstation.Build(distsys.Physical, e5Users())
				if err != nil {
					b.Fatal(err)
				}
				phys.Run(3000)
				hosted, err := workstation.Build(distsys.KernelHosted, e5Users())
				if err != nil {
					b.Fatal(err)
				}
				hosted.Fabric.Quantum = quantum
				hosted.Run(6000)
				mismatches = 0
				for _, comp := range []string{"lois", "hank", "auth", "fs", "ps"} {
					if ok, _ := distsys.PerPortTracesEqual(phys.Fabric, hosted.Fabric, comp); !ok {
						mismatches++
					}
				}
			}
			b.ReportMetric(float64(mismatches), "distinguishable-components")
		})
	}
}

// BenchmarkAblationChannelCapacity sweeps the kernel channel capacity and
// reports sustained words-per-cycle between two regimes — the cost of the
// SUE's fixed, kernel-buffered channel design.
func BenchmarkAblationChannelCapacity(b *testing.B) {
	const producer = `
	.org 0x40
start:
	MOV #0, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD R0, R2        ; count successes
	TRAP #SWAP
	BR loop
`
	const consumer = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	ADD R0, R4        ; count successes
	CMP #1, R0
	BEQ loop          ; drain greedily
	TRAP #SWAP
	BR loop
`
	for _, capacity := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			k := boot(b, witness.SystemSpec{Kind: "verifysys",
				Regimes:  regimes("p", producer, "c", consumer),
				Channels: []witness.ChannelSpec{{From: "p", To: "c", Capacity: capacity}}}).K
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
			b.StopTimer()
			got := k.RegimeReg(k.RegimeIndex("c"), 4)
			if b.N > 0 {
				b.ReportMetric(float64(got)/float64(b.N), "words/cycle")
			}
		})
	}
}

// BenchmarkAblationCensorRate sweeps the censor's rate limit and reports
// the residual bandwidth of the one channel that beats the format check
// (length parity) under a format-only censor — quantifying how much rate
// limiting buys when canonicalization is unavailable.
func BenchmarkAblationCensorRate(b *testing.B) {
	for _, rate := range []int{0, 4, 16, 64} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			var rateBits float64
			for i := 0; i < b.N; i++ {
				res, err := snfe.Run(snfe.Config{
					Mode: snfe.ExfilLenMod, Censor: snfe.CensorFormat,
					RateEvery: rate, Packets: 48, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Delivered {
					b.Fatal("user data lost")
				}
				rateBits = res.Covert.BitsPerRound
			}
			b.ReportMetric(rateBits, "bits/round")
		})
	}
}

// BenchmarkAblationTimingChannel measures the scheduling/timing covert
// channel the paper's model deliberately permits ("denial of service is
// not a security problem", §3): bits moved between regimes with no shared
// memory, no channels and no kernel bug — by modulating CPU hold time.
// The same system passes Proof of Separability (asserted in
// internal/timingchan's tests).
func BenchmarkAblationTimingChannel(b *testing.B) {
	for _, busy := range []int{20, 60, 200} {
		b.Run(fmt.Sprintf("hold=%d", busy), func(b *testing.B) {
			var cap1, rate float64
			for i := 0; i < b.N; i++ {
				res, _, err := timingchan.Run(64, 11, busy, busy+24)
				if err != nil {
					b.Fatal(err)
				}
				cap1 = res.Covert.CapacityPerSymbol
				rate = res.Covert.BitsPerRound
			}
			b.ReportMetric(cap1, "cap-b/sym")
			b.ReportMetric(rate, "bits/cycle")
		})
	}
}
