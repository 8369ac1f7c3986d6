package repro

// The benchmark harness: one benchmark per experiment in EXPERIMENTS.md
// (E1..E13). The paper is a 1981 position paper without numbered tables, so
// each benchmark regenerates one *checkable claim* from the text; custom
// metrics (b.ReportMetric) carry the experiment's actual observables
// alongside the usual ns/op.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/distsys"
	"repro/internal/guard"
	"repro/internal/ifa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/minisue"
	"repro/internal/mls"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/snfe"
	"repro/internal/terminal"
	"repro/internal/verifysys"
	"repro/internal/witness"
	"repro/internal/workstation"
)

// countLines sums the non-blank, non-comment source lines of the given
// files (a crude but honest analogue of the SUE's "about 5K words").
func countLines(b *testing.B, dir string, exclude ...string) int {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		skip := false
		for _, ex := range exclude {
			if name == ex {
				skip = true
			}
		}
		if skip {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			t := strings.TrimSpace(line)
			if t == "" || strings.HasPrefix(t, "//") {
				continue
			}
			total++
		}
	}
	return total
}

// BenchmarkE1KernelFootprint — paper §3: the SUE is "minimally small and
// very simple ... about 5K words". We compare the separation kernel's code
// size and boot cost against the kernelized baseline's TCB (central
// monitor + policy machinery + the trusted spooler that must join it).
func BenchmarkE1KernelFootprint(b *testing.B) {
	sepLoC := countLines(b, "internal/kernel", "adapter.go", "leaks.go")
	// The conventional kernel's TCB: central monitor, policy machinery,
	// and — as in KSOS, whose kernel "contains, among other things, a
	// mechanism to support a multilevel secure file system" (paper §4) —
	// the file system itself.
	baseTCB := countLines(b, "internal/baseline") +
		countLines(b, "internal/mls") +
		countLines(b, "internal/fileserver")

	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.K.Boot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sepLoC), "sepkernel-loc")
	b.ReportMetric(float64(baseTCB), "baseline-tcb-loc")
	b.ReportMetric(float64(baseTCB)/float64(sepLoC), "tcb-ratio")
	// Kernel data footprint in machine words (save areas + channels).
	b.ReportMetric(float64(kernel.KernelEnd), "kernel-area-words")
	// The structural claim: the separation kernel "knows nothing of the
	// security policy enforced by the system" — it must reference the MLS
	// machinery exactly zero times, while the conventional kernel is built
	// around it.
	b.ReportMetric(float64(countImports(b, "internal/kernel", "repro/internal/mls")), "sep-policy-imports")
	b.ReportMetric(float64(countImports(b, "internal/baseline", "repro/internal/mls")), "baseline-policy-imports")
}

// countImports counts source files in dir importing the given path.
func countImports(b *testing.B, dir, importPath string) int {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if strings.Contains(string(data), "\""+importPath+"\"") {
			n++
		}
	}
	return n
}

// BenchmarkE2SwapVerification — paper §4: IFA rejects the manifestly
// secure SWAP; Proof of Separability verifies the same context-switch
// logic running in the real kernel.
func BenchmarkE2SwapVerification(b *testing.B) {
	lattice := ifa.Isolation(ifa.SwapColours...)
	var ifaViolations int
	b.Run("IFA-on-implementation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := ifa.Certify(ifa.SwapImplementation(6), lattice)
			ifaViolations = len(rep.Violations)
		}
		b.ReportMetric(float64(ifaViolations), "violations")
	})
	b.Run("IFA-on-spec", func(b *testing.B) {
		var v int
		for i := 0; i < b.N; i++ {
			rep := ifa.Certify(ifa.SwapHighLevelSpec(6), lattice)
			v = len(rep.Violations)
		}
		b.ReportMetric(float64(v), "violations")
	})
	b.Run("Separability-on-kernel", func(b *testing.B) {
		var v int
		for i := 0; i < b.N; i++ {
			sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
			if err != nil {
				b.Fatal(err)
			}
			res := separability.CheckRandomized(sys, separability.Options{
				Trials: 2, StepsPerTrial: 40, Seed: int64(i) + 1,
			})
			v = len(res.Violations)
		}
		b.ReportMetric(float64(v), "violations")
	})
}

// BenchmarkE3ChannelCutting — paper §4: cutting the configured channels
// reduces "no channels but these" to "no channels at all": the uncut
// system shows exactly the configured flows; the cut system verifies
// isolated.
func BenchmarkE3ChannelCutting(b *testing.B) {
	run := func(b *testing.B, cut bool) int {
		var v int
		for i := 0; i < b.N; i++ {
			sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, cut)
			if err != nil {
				b.Fatal(err)
			}
			res := separability.CheckRandomized(sys, separability.Options{
				Trials: 3, StepsPerTrial: 60, Seed: 42,
			})
			v = len(res.Violations)
		}
		return v
	}
	b.Run("uncut", func(b *testing.B) {
		v := run(b, false)
		b.ReportMetric(float64(v), "flows-detected")
	})
	b.Run("cut", func(b *testing.B) {
		v := run(b, true)
		b.ReportMetric(float64(v), "flows-detected")
	})
}

// BenchmarkE4CensorBandwidth — paper §2: "A fairly simple censor can
// reduce the bandwidth available for illicit communication over the bypass
// to an acceptable level." Reported metrics are covert bits/round for the
// strongest encoding under each censor.
func BenchmarkE4CensorBandwidth(b *testing.B) {
	cases := []struct {
		name   string
		censor snfe.CensorMode
		rate   int
	}{
		{"off", snfe.CensorOff, 0},
		{"format", snfe.CensorFormat, 0},
		{"canonical", snfe.CensorCanon, 0},
		{"canonical-rate8", snfe.CensorCanon, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				best = 0
				for _, mode := range []snfe.Exfil{snfe.ExfilField, snfe.ExfilLenMod, snfe.ExfilSeqSkip} {
					res, err := snfe.Run(snfe.Config{
						Mode: mode, Censor: c.censor, RateEvery: c.rate,
						Packets: 48, Seed: 7,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Delivered {
						b.Fatal("user data lost")
					}
					if res.Covert.BitsPerRound > best {
						best = res.Covert.BitsPerRound
					}
				}
			}
			b.ReportMetric(best, "worst-bits/round")
		})
	}
}

// BenchmarkE5SpoolerTCB — paper §1: the kernelized system needs a trusted
// process to run a line-printer spooler; the distributed design does not.
func BenchmarkE5SpoolerTCB(b *testing.B) {
	b.Run("kernelized-untrusted", func(b *testing.B) {
		var left, fails int
		for i := 0; i < b.N; i++ {
			sys, sp := baseline.SpoolerScenario(false)
			sys.Run(1000)
			left = sys.FilesMatching("spool/")
			fails = sp.DeleteFailures
		}
		b.ReportMetric(float64(left), "spool-left")
		b.ReportMetric(float64(fails), "cleanup-denied")
		b.ReportMetric(0, "trusted-procs")
	})
	b.Run("kernelized-trusted", func(b *testing.B) {
		var left, uses, procs int
		for i := 0; i < b.N; i++ {
			sys, _ := baseline.SpoolerScenario(true)
			sys.Run(1000)
			left = sys.FilesMatching("spool/")
			tcb := sys.TCB()
			uses = tcb.TrustedUses
			procs = len(tcb.TrustedProcesses)
		}
		b.ReportMetric(float64(left), "spool-left")
		b.ReportMetric(float64(uses), "exemptions-used")
		b.ReportMetric(float64(procs), "trusted-procs")
	})
	b.Run("distributed", func(b *testing.B) {
		var left, uses int
		for i := 0; i < b.N; i++ {
			sys, err := workstation.Build(distsys.Physical, e5Users())
			if err != nil {
				b.Fatal(err)
			}
			sys.Run(3000)
			if sys.Printer.JobsPrinted() != 2 {
				b.Fatalf("jobs printed = %d", sys.Printer.JobsPrinted())
			}
			left = sys.Files.SpoolCount()
			uses = sys.Files.Monitor().TrustedUses()
		}
		b.ReportMetric(float64(left), "spool-left")
		b.ReportMetric(float64(uses), "exemptions-used")
		b.ReportMetric(0, "trusted-procs")
	})
}

func e5Users() []workstation.User {
	return []workstation.User{
		{Name: "lois", Password: "pw1", Clearance: mls.L(mls.Unclassified),
			Script: []terminal.Action{
				terminal.Login("lois", "pw1"),
				terminal.Create("memo"),
				terminal.Write("memo", "print me"),
				terminal.Spool("memo"),
				terminal.PrintLast(),
			}},
		{Name: "hank", Password: "pw2", Clearance: mls.L(mls.Secret),
			Script: []terminal.Action{
				terminal.Login("hank", "pw2"),
				terminal.Create("battle"),
				terminal.Write("battle", "secret plan"),
				terminal.Spool("battle"),
				terminal.PrintLast(),
			}},
	}
}

// BenchmarkE6GuardFlow — paper §1: the Guard moves traffic both ways under
// direction-specific rules; throughput and verdict mix are reported.
func BenchmarkE6GuardFlow(b *testing.B) {
	low := make([]string, 30)
	high := make([]string, 30)
	for i := range low {
		low[i] = "low report"
	}
	for i := range high {
		switch i % 3 {
		case 0:
			high[i] = "routine summary"
		case 1:
			high[i] = "summary [SECRET: detail] end"
		default:
			high[i] = "roster NOFORN"
		}
	}
	var released, redacted, denied, up int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := guard.Build(guard.MarkerOfficer{}, low, high)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(5000)
		released, redacted, denied, up = sys.Guard.Released, sys.Guard.Redacted,
			sys.Guard.Denied, sys.Guard.UpPassed
	}
	b.ReportMetric(float64(up), "up-passed")
	b.ReportMetric(float64(released), "released")
	b.ReportMetric(float64(redacted), "redacted")
	b.ReportMetric(float64(denied), "denied")
}

// BenchmarkE7Indistinguishability — paper §3: the separation-kernel-hosted
// system is indistinguishable, to every component, from the physically
// distributed one.
func BenchmarkE7Indistinguishability(b *testing.B) {
	var mismatches int
	for i := 0; i < b.N; i++ {
		run := func(d distsys.Deployment) *workstation.System {
			sys, err := workstation.Build(d, e5Users())
			if err != nil {
				b.Fatal(err)
			}
			sys.Run(3000)
			return sys
		}
		phys := run(distsys.Physical)
		hosted := run(distsys.KernelHosted)
		mismatches = 0
		for _, comp := range []string{"lois", "hank", "auth", "fs", "ps"} {
			if ok, _ := distsys.PerPortTracesEqual(phys.Fabric, hosted.Fabric, comp); !ok {
				mismatches++
			}
		}
	}
	b.ReportMetric(float64(mismatches), "distinguishable-components")
}

// BenchmarkE8ConditionChecking — paper §4/Appendix: the six conditions (plus
// the scheduling extension) catch every planted kernel leak and pass the
// honest kernel.
func BenchmarkE8ConditionChecking(b *testing.B) {
	var caught, expected int
	for i := 0; i < b.N; i++ {
		caught, expected = 0, 0
		for _, l := range kernel.AllLeaks() {
			expected++
			sys, err := verifysys.Build(verifysys.ProbeFor(l), l, true)
			if err != nil {
				b.Fatal(err)
			}
			res := separability.CheckRandomized(sys, separability.Options{
				Trials: 10, StepsPerTrial: 100, Seed: 99,
				CheckScheduling: l.SchedulerSnoop,
			})
			if !res.Passed() {
				caught++
			}
		}
		// The honest kernel must pass under the same budget.
		sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
		if err != nil {
			b.Fatal(err)
		}
		res := separability.CheckRandomized(sys, separability.Options{
			Trials: 10, StepsPerTrial: 100, Seed: 99, CheckScheduling: true,
		})
		if !res.Passed() {
			b.Fatalf("honest kernel failed: %s", res.Summary())
		}
	}
	b.ReportMetric(float64(caught), "leaks-caught")
	b.ReportMetric(float64(expected), "leaks-planted")
}

// BenchmarkE8ConditionCheckingParallel — the E8 workload with trials
// sharded across worker goroutines, each checking a private replica of the
// kernel system. Reports the serial/parallel wall-clock ratio as speedup-x
// (bounded by the host's core count — on a single-core host it is ~1.0)
// and asserts the two engines produce byte-identical summaries.
func BenchmarkE8ConditionCheckingParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	opt := separability.Options{
		Trials: 16, StepsPerTrial: 100, Seed: 99, CheckScheduling: true,
	}
	check := func(workers int) (*separability.Result, time.Duration) {
		sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
		if err != nil {
			b.Fatal(err)
		}
		o := opt
		o.Workers = workers
		start := time.Now()
		res := separability.CheckRandomized(sys, o)
		return res, time.Since(start)
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		sRes, sDur := check(1)
		pRes, pDur := check(workers)
		serial += sDur
		parallel += pDur
		if sRes.Summary() != pRes.Summary() {
			b.Fatalf("parallel summary diverged from serial:\n  %s\n  %s",
				sRes.Summary(), pRes.Summary())
		}
	}
	b.ReportMetric(float64(workers), "workers")
	if parallel > 0 {
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
	}
}

// BenchmarkE9KernelOverhead — paper §3: running the distributed system on
// one processor via a separation kernel is cost-effective. We measure the
// interpreter's instruction rate bare vs. under SUE-Go, and the cost of a
// SWAP.
func BenchmarkE9KernelOverhead(b *testing.B) {
	b.Run("native-SM11", func(b *testing.B) {
		m := machine.New(0x1000)
		// A pure compute loop in kernel mode, no supervisor.
		img := mustImage(b, `
			.org 0x100
		loop:
			ADD #1, R2
			SUB #1, R3
			BR loop
		`)
		m.LoadImage(img.Org, img.Words)
		m.SetPC(img.Org)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step()
		}
		b.ReportMetric(1, "instr/step")
	})
	b.Run("under-kernel", func(b *testing.B) {
		k := boot(b, witness.SystemSpec{Kind: "verifysys", Regimes: regimes("a", `
				.org 0x40
			start:
				ADD #1, R2
				SUB #1, R3
				BR start
			`)}).K
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
	})
	b.Run("swap-cost", func(b *testing.B) {
		k := boot(b, witness.SystemSpec{Kind: "verifysys",
			Regimes: regimes("a", swapLoop, "b", swapLoop)}).K
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
		st := k.Stats()
		if st.Swaps > 0 {
			b.ReportMetric(float64(uint64(b.N))/float64(st.Swaps), "cycles/swap")
		}
	})
}

// BenchmarkE11TracingOverhead — the observability contract (see
// internal/obs): hooks are nil-guarded branches outside the modelled
// state, so an untraced kernel pays (almost) nothing and even a live ring
// sink stays cheap. Sub-benchmarks step the same two-regime syscall-heavy
// workload with no tracer, the no-op tracer, and a ring sink.
func BenchmarkE11TracingOverhead(b *testing.B) {
	run := func(b *testing.B, tr obs.Tracer) {
		sys := boot(b, witness.SystemSpec{Kind: "verifysys",
			Regimes: regimes("a", swapLoop, "b", swapLoop)})
		if tr != nil {
			sys.SetTracer(tr)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.K.Step()
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, obs.Nop{}) })
	b.Run("ring", func(b *testing.B) { run(b, obs.NewRing(4096)) })
}

// BenchmarkE13DeltaSnapshot — the delta-snapshot optimisation: the same
// randomized condition-checking workload over the kernel system, once
// through the legacy full Save/Restore path (the adapter's Checkpointer
// hidden behind a noCheckpoint wrapper) and once through the O(dirty)
// Checkpoint/Rollback path. B/op is the proxy for bytes copied per checked
// state; the acceptance bar is a ≥3× reduction. Both paths must agree on
// the verifier's verdict byte-for-byte — asserted here, and in depth by
// TestDeltaPathMatchesFullSnapshots.
func BenchmarkE13DeltaSnapshot(b *testing.B) {
	opt := separability.Options{
		Trials: 2, StepsPerTrial: 30, Seed: 7, Workers: 1,
	}
	run := func(b *testing.B, hideCheckpointer bool) string {
		sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
		if err != nil {
			b.Fatal(err)
		}
		var p model.Perturbable = sys
		if hideCheckpointer {
			p = noCheckpoint{sys}
		}
		var sum string
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum = separability.CheckRandomized(p, opt).Summary()
		}
		return sum
	}
	var full, delta string
	b.Run("full-snapshot", func(b *testing.B) { full = run(b, true) })
	b.Run("delta", func(b *testing.B) { delta = run(b, false) })
	if full != delta {
		b.Fatalf("verdicts diverged:\n full:  %s\n delta: %s", full, delta)
	}

	// The digest of record: rendering the abstraction and hashing it (the
	// FNV digest violations persist). BenchmarkMicroDigestMiss measures
	// the fingerprint the checkers compare.
	sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		b.Fatal(err)
	}
	colours := sys.Colours()
	b.Run("digest-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			digestSink ^= model.DigestString(sys.Abstract(colours[i%len(colours)]))
		}
	})
}

// digestSink keeps benchmarked digests live: a digest nothing reads lets
// the compiler drop the inlined hash's multiplies.
var digestSink uint64

const swapLoop = `
	.org 0x40
start:
	TRAP #SWAP
	BR start
`

// prove runs the whole exhaustive sweep of sys on the given number of
// workers and returns its verdict, failing the benchmark on error.
func prove(b *testing.B, sys model.Enumerable, maxViolations, workers int) *separability.Result {
	b.Helper()
	sr, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		MaxViolations: maxViolations, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sr.Result()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mustImage(b *testing.B, src string) *asm.Image {
	b.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	return im
}

// BenchmarkE18ShardedExhaustive — fleet-style scale-out of the exhaustive
// MiniSUE proof (E10's scaling story at process granularity): the chunked
// state space is cut into N shards, each swept by an independent checker
// instance on its own system — the in-process analogue of N
// `sepverify -target T -shard k/n` worker processes — and the shard
// results merged. The merged verdict must be byte-identical to the
// unsharded single-threaded sweep. units/s counts check units (one state's
// op pass or one input pass); speedup-x is wall clock versus the serial
// run measured on the same host, so on a single-core CI box it is ~1.0 for
// every shard count, exactly as E10 found for goroutine workers. B/op per
// sweep carries the lead-table memory diet: resident precompute is
// O(Φ-collision buckets), not O(state space). shards=2-checkpoint is the
// 2-shard cut with each shard keeping its file at the default checkpoint
// cadence, as `sepverify -shard k/2 -checkpoint F` does.
func BenchmarkE18ShardedExhaustive(b *testing.B) {
	build := func() model.Enumerable { return minisue.New(minisue.Secure) }
	probe := build()
	states, inputs := 0, 0
	probe.EnumerateStates(func(model.StateRef) bool { states++; return true })
	probe.EnumerateInputs(func(model.Input) bool { inputs++; return true })
	units := float64(states * (1 + inputs))

	start := time.Now()
	serial := prove(b, build(), 8, 1)
	serialDur := time.Since(start)
	want := serial.Summary()

	for _, cut := range []struct {
		shards     int
		checkpoint bool
	}{{1, false}, {2, false}, {4, false}, {2, true}} {
		shards := cut.shards
		name := fmt.Sprintf("shards=%d", shards)
		if cut.checkpoint {
			name += "-checkpoint"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srs := make([]*separability.ShardResult, shards)
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for k := 0; k < shards; k++ {
					opt := separability.ExhaustiveOptions{
						MaxViolations: 8, Workers: 1, Shard: k, Shards: shards,
					}
					if cut.checkpoint {
						// A fresh file per run, so no run resumes a finished one.
						opt.Checkpoint = filepath.Join(dir, fmt.Sprintf("run-%d-shard-%d.json", i, k))
					}
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						srs[k], errs[k] = separability.CheckExhaustiveShard(build(), opt)
					}(k)
				}
				wg.Wait()
				for k, err := range errs {
					if err != nil {
						b.Fatalf("shard %d: %v", k, err)
					}
				}
				res, err := separability.MergeShards(srs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary() != want {
					b.Fatalf("merged verdict diverged from serial:\n  %s\n  %s",
						res.Summary(), want)
				}
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(units/perOp, "units/s")
				b.ReportMetric(serialDur.Seconds()/perOp, "speedup-x")
			}
		})
	}
}
