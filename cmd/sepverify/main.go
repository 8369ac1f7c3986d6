// Command sepverify runs Proof of Separability against SUE-Go kernels.
//
//	sepverify                      # verify the honest kernel (cut channels)
//	sepverify -leak RegisterLeak   # verify a fault-injected kernel
//	sepverify -all                 # sweep: honest + every leak variant
//	sepverify -uncut               # show the configured channels as flows
//
// Exhaustive (explicit-state) proofs, shardable across processes:
//
//	sepverify -exhaustive                            # the full proof suite
//	sepverify -exhaustive -target minisue:secure     # one registered target
//	sepverify -exhaustive -target T -shard 1/4 \
//	          -shard-out s1.json -checkpoint s1.ck   # one resumable shard
//	sepverify -merge s0.json s1.json s2.json s3.json # fold shard artifacts
//
// A sharded sweep writes a versioned, content-addressed shard-result file;
// -merge folds a complete shard set into the combined verdict, which is
// byte-identical to the unsharded run. -checkpoint persists resumable
// progress at a bounded cadence, so a killed shard rerun skips finished
// work (see cmd/sepfleet for the multi-process coordinator).
//
// Observability (see internal/obs):
//
//	sepverify -metrics             # per-condition check counts + worker throughput
//	sepverify -progress            # periodic progress lines (throughput, ETA)
//	sepverify -cpuprofile cpu.out  # pprof profiles of the verification run
//	sepverify -listen :9090 -pprof # live /metrics plus /debug/pprof handlers
//	sepverify -witness-dir W       # persist replayable counterexample witnesses
//
// Exit status is 0 when the verification outcome matches expectation
// (honest passes / leaky is caught), 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/minisue"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the whole run so deferred cleanup (pprof stop, progress
// ticker shutdown) executes before the process exits.
func realMain() int {
	leak := flag.String("leak", "", "inject one named leak (see -list)")
	list := flag.Bool("list", false, "list the available leak names")
	all := flag.Bool("all", false, "sweep the honest kernel and every leak variant")
	uncut := flag.Bool("uncut", false, "verify WITHOUT cutting channels (expected to fail)")
	trials := flag.Int("trials", 10, "random traces to explore")
	steps := flag.Int("steps", 100, "states checked per trace")
	seed := flag.Int64("seed", 1, "exploration seed")
	sched := flag.Bool("sched", true, "include the scheduling-independence extension")
	workers := flag.Int("workers", 0,
		"checker goroutines to shard trials across; 0 = one per CPU core (results are identical for any value)")
	exhaustive := flag.Bool("exhaustive", false,
		"run the exhaustive proofs (MiniSUE + toy calibration) instead of the kernel check")
	target := flag.String("target", "",
		"with -exhaustive: sweep one registered enumerable target (e.g. minisue:secure; see verifysys)")
	shardSpec := flag.String("shard", "",
		"with -target: run only shard k/n of the chunked state space (0-based), e.g. 1/4")
	shardOut := flag.String("shard-out", "",
		"with -target: write the sealed shard-result artifact to this file")
	checkpoint := flag.String("checkpoint", "",
		"with -target: persist resumable progress to this file and resume from it when present")
	checkpointEvery := flag.Int("checkpoint-every", 0,
		"checkpoint cadence in folded chunks (0 = 8)")
	chunk := flag.Int("chunk", 0,
		"states per work/checkpoint chunk (0 = 64); all shards of one fleet must agree")
	maxViolations := flag.Int("max-violations", 8,
		"counterexamples collected per condition in exhaustive sweeps")
	throttle := flag.Duration("throttle", 0,
		"sleep this long before each chunk (testing lever for kill/resume demos)")
	merge := flag.Bool("merge", false,
		"merge the shard-result files given as arguments into the combined verdict")
	metrics := flag.Bool("metrics", false,
		"collect verifier metrics and dump a throughput report after the run")
	metricsFormat := flag.String("metrics-format", "prom",
		"registry dump format with -metrics: prom (Prometheus text) or json")
	progress := flag.Bool("progress", false,
		"print periodic progress lines (trials/states so far) to stderr")
	listen := flag.String("listen", "",
		"serve live verifier counters at http://ADDR/metrics while the run lasts (e.g. :9090)")
	pprofFlag := flag.Bool("pprof", false,
		"with -listen: also serve net/http/pprof handlers under /debug/pprof/")
	witnessDir := flag.String("witness-dir", "",
		"capture each distinct violation as a replayable witness artifact under this directory (see sepwitness)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	if *list {
		for _, name := range leakNames() {
			fmt.Println(name)
		}
		return 0
	}

	if *metricsFormat != "prom" && *metricsFormat != "json" {
		fmt.Fprintf(os.Stderr, "sepverify: unknown -metrics-format %q (want prom or json)\n", *metricsFormat)
		return 2
	}

	if *merge {
		return runMerge(flag.Args())
	}
	if *target != "" && !*exhaustive {
		fmt.Fprintln(os.Stderr, "sepverify: -target requires -exhaustive")
		return 2
	}
	if *target == "" && (*shardSpec != "" || *shardOut != "" || *checkpoint != "") {
		fmt.Fprintln(os.Stderr, "sepverify: -shard, -shard-out and -checkpoint require -target")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sepverify:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sepverify:", err)
			}
		}()
	}

	if *pprofFlag && *listen == "" {
		fmt.Fprintln(os.Stderr, "sepverify: -pprof requires -listen")
		return 2
	}

	// One registry serves -metrics, -progress and the final report; every
	// runOne in an -all sweep accumulates into it.
	var reg *obs.Registry
	if *metrics || *progress || *listen != "" || *witnessDir != "" {
		reg = obs.NewRegistry()
	}
	start := time.Now()
	if *progress {
		variants := uint64(1)
		if *all {
			variants += uint64(len(leakNames()))
		}
		expectStates := uint64(0)
		if !*exhaustive {
			expectStates = variants * uint64(*trials) * uint64(*steps)
		}
		stop := startProgress(reg, expectStates)
		defer stop()
	}
	if *listen != "" {
		bound, shutdown, err := obs.ListenMetricsOpts(*listen, reg,
			obs.ListenOptions{Pprof: *pprofFlag})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "serving metrics at http://%s/metrics\n", bound)
		defer shutdown()
	}

	if *exhaustive {
		status := 0
		if *target != "" {
			status = runTargetExhaustive(*target, separability.ExhaustiveOptions{
				MaxViolations: *maxViolations, Workers: *workers, Metrics: reg,
				ChunkSize: *chunk, Checkpoint: *checkpoint, CheckpointEvery: *checkpointEvery,
				ChunkDelay: *throttle,
			}, *shardSpec, *shardOut)
		} else {
			runExhaustive(*workers, reg)
		}
		if *metrics {
			reportMetrics(reg, time.Since(start), *metricsFormat)
		}
		return status
	}

	opt := separability.Options{
		Trials: *trials, StepsPerTrial: *steps, Seed: *seed, CheckScheduling: *sched,
		Workers: *workers, Metrics: reg,
	}

	status := 0
	if *all {
		ok := true
		if r, err := runOne("", true, opt, true, *witnessDir); err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		} else {
			ok = r
		}
		for _, name := range leakNames() {
			r, err := runOne(name, true, opt, false, *witnessDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sepverify:", err)
				return 2
			}
			ok = r && ok
		}
		if !ok {
			status = 1
		}
	} else {
		expectPass := true
		if *leak != "" {
			if _, found := kernel.AllLeaks()[*leak]; !found {
				fmt.Fprintf(os.Stderr, "sepverify: unknown leak %q (try -list)\n", *leak)
				return 2
			}
			expectPass = false
		}
		if *uncut {
			expectPass = false
		}
		ok, err := runOne(*leak, !*uncut, opt, expectPass, *witnessDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		if !ok {
			status = 1
		}
	}

	if *metrics {
		reportMetrics(reg, time.Since(start), *metricsFormat)
	}
	return status
}

func leakNames() []string {
	var names []string
	for n := range kernel.AllLeaks() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOne verifies one variant: leakName names a planted leak ("" = the
// honest kernel). With witnessDir set, every distinct violation is
// captured, shrunk and persisted under a per-variant subdirectory.
func runOne(leakName string, cut bool, opt separability.Options, expectPass bool, witnessDir string) (bool, error) {
	name := leakName
	if name == "" {
		name = "honest"
	}
	if !cut {
		name += " (uncut)"
	}
	spec := verifysys.SpecFor(leakName, cut, false)
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		return false, err
	}
	res := separability.CheckRandomized(sys, opt)
	verdict := "as expected"
	good := res.Passed() == expectPass
	if !good {
		verdict = "UNEXPECTED"
	}
	fmt.Printf("%-22s %-60s [%s]\n", name+":", res.Summary(), verdict)
	if !res.Passed() {
		seen := map[separability.Condition]bool{}
		for _, v := range res.Violations {
			if seen[v.Condition] {
				continue
			}
			seen[v.Condition] = true
			fmt.Printf("    %s\n", v)
		}
	}
	if witnessDir != "" && !res.Passed() {
		sub := leakName
		if sub == "" {
			sub = "honest"
		}
		if !cut {
			sub += "-uncut"
		}
		dir := filepath.Join(witnessDir, sub)
		ws, err := witness.Capture(sys, opt, res, witness.Options{
			Dir: dir, Metrics: opt.Metrics, System: spec})
		if err != nil {
			return false, fmt.Errorf("witness capture: %w", err)
		}
		dropped := 0
		for _, w := range ws {
			dropped += w.OrigSteps - len(w.Steps)
		}
		fmt.Printf("    witnesses: %d captured -> %s (%d ops shrunk away)\n",
			len(ws), dir, dropped)
	}
	return good, nil
}

// startProgress launches a ticker that reports verifier progress on stderr
// every half second; the returned func stops it and prints a final line.
// Lines carry live throughput (states/sec over a ~5s sliding window) and,
// when expectStates > 0, an ETA; exhaustive passes report percent of the
// enumerated space completed instead (from the sep_exh_* counters).
func startProgress(reg *obs.Registry, expectStates uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	type sample struct {
		t      time.Time
		states uint64
	}
	var window []sample
	line := func() {
		now := time.Now()
		if space := reg.CounterValue("sep_exh_space_total"); space > 0 {
			doneU := reg.CounterValue("sep_exh_states_total")
			fmt.Fprintf(os.Stderr, "progress: exhaustive %d/%d units (%.1f%%)\n",
				doneU, space, 100*float64(doneU)/float64(space))
			return
		}
		states := reg.CounterValue("sep_states_checked_total")
		window = append(window, sample{now, states})
		for len(window) > 1 && now.Sub(window[0].t) > 5*time.Second {
			window = window[1:]
		}
		extra := ""
		if len(window) > 1 {
			if dt := now.Sub(window[0].t).Seconds(); dt > 0 {
				rate := float64(states-window[0].states) / dt
				extra = fmt.Sprintf(" (%.0f states/s", rate)
				if rate > 0 && expectStates > states {
					eta := time.Duration(float64(expectStates-states) / rate * float64(time.Second))
					extra += fmt.Sprintf(", ~%s left", eta.Round(time.Second))
				}
				extra += ")"
			}
		}
		fmt.Fprintf(os.Stderr, "progress: trials=%d states=%d violations=%d%s\n",
			reg.CounterValue("sep_trials_total"), states,
			reg.CounterValue("sep_violations_total"), extra)
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				line()
			case <-done:
				line()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// reportMetrics prints the human throughput summary followed by the raw
// registry dump in the requested format.
func reportMetrics(reg *obs.Registry, elapsed time.Duration, format string) {
	sec := elapsed.Seconds()
	trials := reg.CounterValue("sep_trials_total")
	states := reg.CounterValue("sep_states_checked_total")
	fmt.Printf("\nverifier throughput (%.3fs wall):\n", sec)
	fmt.Printf("  trials: %d (%.1f/s)   states: %d (%.0f/s)\n",
		trials, float64(trials)/sec, states, float64(states)/sec)

	fmt.Println("  per-condition checks:")
	for _, cv := range reg.Counters() {
		if strings.HasPrefix(cv.Name, "sep_checks_total{") {
			fmt.Printf("    %-40s %d\n", cv.Name, cv.Value)
		}
	}

	// Per-operation-class attribution (only present when the checked
	// system classifies its operations).
	var perOp []obs.CounterValue
	for _, cv := range reg.Counters() {
		if strings.HasPrefix(cv.Name, "sep_checks_by_op_total{") {
			perOp = append(perOp, cv)
		}
	}
	if len(perOp) > 0 {
		fmt.Println("  per-op checks:")
		for _, cv := range perOp {
			fmt.Printf("    %-40s %d\n", cv.Name, cv.Value)
		}
	}

	// Per-worker lines exist only when the run sharded across workers.
	type worker struct{ trials, states, busyUS uint64 }
	byWorker := map[string]*worker{}
	var ids []string
	get := func(id string) *worker {
		w, ok := byWorker[id]
		if !ok {
			w = &worker{}
			byWorker[id] = w
			ids = append(ids, id)
		}
		return w
	}
	for _, cv := range reg.Counters() {
		name, id, ok := workerCounter(cv.Name)
		if !ok {
			continue
		}
		w := get(id)
		switch name {
		case "sep_worker_trials_total":
			w.trials = cv.Value
		case "sep_worker_states_total":
			w.states = cv.Value
		case "sep_worker_busy_us_total":
			w.busyUS = cv.Value
		}
	}
	if len(ids) > 0 {
		sort.Strings(ids)
		fmt.Println("  per-worker:")
		for _, id := range ids {
			w := byWorker[id]
			busy := float64(w.busyUS) / 1e6
			sps := 0.0
			if busy > 0 {
				sps = float64(w.states) / busy
			}
			fmt.Printf("    worker %-3s trials=%-4d states=%-7d busy=%.3fs (%.0f states/s)\n",
				id, w.trials, w.states, busy, sps)
		}
	}

	fmt.Println("\nmetrics:")
	if format == "json" {
		reg.WriteJSON(os.Stdout)
		fmt.Println()
	} else {
		reg.WritePrometheus(os.Stdout)
	}
}

// workerCounter splits a sep_worker_*{worker="N"} counter name into its
// base name and worker id.
func workerCounter(full string) (name, id string, ok bool) {
	if !strings.HasPrefix(full, "sep_worker_") {
		return "", "", false
	}
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return "", "", false
	}
	name = full[:i]
	rest := full[i:]
	const pre = `{worker="`
	if !strings.HasPrefix(rest, pre) || !strings.HasSuffix(rest, `"}`) {
		return "", "", false
	}
	return name, rest[len(pre) : len(rest)-2], true
}

// parseShard parses a "-shard k/n" spec; empty means the whole space.
func parseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want k/n, e.g. 1/4)", s)
	}
	k, errK := strconv.Atoi(ks)
	n, errN := strconv.Atoi(ns)
	if errK != nil || errN != nil || n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q (want 0 <= k < n)", s)
	}
	return k, n, nil
}

// runTargetExhaustive sweeps one registered target — or one shard of it —
// optionally persisting the sealed shard artifact and a resumable
// checkpoint. A single-shard run is judged against the target's expected
// verdict; a k/n shard carries no verdict of its own (the leak may live in
// another shard) and exits 0 unless the sweep itself failed.
func runTargetExhaustive(name string, opt separability.ExhaustiveOptions, shardSpec, shardOut string) int {
	t, err := verifysys.FindExhaustiveTarget(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepverify:", err)
		return 2
	}
	opt.Target = name
	if opt.Shard, opt.Shards, err = parseShard(shardSpec); err != nil {
		fmt.Fprintln(os.Stderr, "sepverify:", err)
		return 2
	}
	// Announce an adopted checkpoint before the sweep so supervisors (and
	// the fleet-smoke test) can observe that a restarted worker actually
	// resumed instead of starting over.
	if opt.Checkpoint != "" {
		ck, err := separability.ReadShardCheckpoint(opt.Checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		if ck != nil {
			fmt.Fprintf(os.Stderr, "sepverify: resumed shard %d/%d of %s from %s (frontier %d of chunks [%d,%d))\n",
				ck.Shard, ck.Shards, name, opt.Checkpoint, ck.Frontier, ck.StartChunk, ck.EndChunk)
		}
	}
	sr, err := separability.CheckExhaustiveShard(t.Build(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepverify:", err)
		return 2
	}
	if shardOut != "" {
		if err := sr.WriteFile(shardOut); err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
	}
	res, err := sr.Result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepverify:", err)
		return 2
	}
	if opt.Shards > 1 {
		fmt.Printf("%-22s shard %d/%d chunks [%d,%d): %s\n",
			name+":", opt.Shard, opt.Shards, sr.StartChunk, sr.EndChunk, res.Summary())
		return 0
	}
	return printExhaustiveVerdict(name, res, t.Secure)
}

// runMerge folds a complete set of shard-result files into the combined
// verdict, which is identical to an unsharded run of the same target. The
// exit status follows the target's expected verdict when the stamped target
// name is registered here.
func runMerge(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "sepverify: -merge needs shard-result files as arguments")
		return 2
	}
	srs := make([]*separability.ShardResult, 0, len(paths))
	for _, p := range paths {
		sr, err := separability.ReadShardResult(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepverify:", err)
			return 2
		}
		srs = append(srs, sr)
	}
	res, err := separability.MergeShards(srs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepverify:", err)
		return 2
	}
	name := srs[0].Target
	if name == "" {
		fmt.Printf("%-22s %s\n", "merged:", res.Summary())
		return 0
	}
	t, err := verifysys.FindExhaustiveTarget(name)
	if err != nil {
		fmt.Printf("%-22s %s\n", name+":", res.Summary())
		return 0
	}
	return printExhaustiveVerdict(name, res, t.Secure)
}

// printExhaustiveVerdict reports one target's combined result in the same
// shape runOne uses for kernel checks, returning the exit status.
func printExhaustiveVerdict(name string, res *separability.Result, expectSecure bool) int {
	verdict := "as expected"
	good := res.Passed() == expectSecure
	if !good {
		verdict = "UNEXPECTED"
	}
	fmt.Printf("%-22s %-60s [%s]\n", name+":", res.Summary(), verdict)
	if !res.Passed() {
		seen := map[separability.Condition]bool{}
		for _, v := range res.Violations {
			if seen[v.Condition] {
				continue
			}
			seen[v.Condition] = true
			fmt.Printf("    %s\n", v)
		}
	}
	if good {
		return 0
	}
	return 1
}

// runExhaustive performs the explicit-state proofs: the full MiniSUE state
// space and the toy-system calibration suite.
func runExhaustive(workers int, reg *obs.Registry) {
	fmt.Println("exhaustive proof over MiniSUE (a kernel-shaped model, ~74k states x 4 inputs):")
	for _, v := range []minisue.Variant{minisue.Secure, minisue.RegisterLeak,
		minisue.InterruptMisroute, minisue.SharedCell} {
		res := separability.CheckExhaustiveOpt(minisue.New(v),
			separability.ExhaustiveOptions{MaxViolations: 8, Workers: workers, Metrics: reg})
		fmt.Printf("  %-20s %s\n", minisue.VariantName(v)+":", res.Summary())
	}
	fmt.Println("\ncalibration toys (1024 states x 4 inputs, one condition violated each):")
	variants := []separability.ToyVariant{separability.ToySecure,
		separability.ToyCovertStore, separability.ToyDirectWrite,
		separability.ToyInputSnoop, separability.ToyInputCross,
		separability.ToyOutputLeak, separability.ToyNextOpLeak}
	for _, v := range variants {
		res := separability.CheckExhaustiveOpt(separability.NewToySystem(v),
			separability.ExhaustiveOptions{MaxViolations: 4, Workers: workers, Metrics: reg})
		fmt.Printf("  %-20s %s\n", separability.ToyVariantName(v)+":", res.Summary())
	}
}
