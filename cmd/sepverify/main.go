// Command sepverify runs Proof of Separability over every system the
// repository registers (package verifysys) and judges each verdict against
// the registered expectation.
//
//	sepverify                               # every registered system, in name order
//	sepverify -list                         # the names -target accepts
//	sepverify -target leak-RegisterLeak     # one kernel deployment (randomized check)
//	sepverify -target minisue:secure        # one enumerable target (exhaustive proof)
//
// A kernel deployment (verifysys.DeploymentSpecs: the honest kernel, the
// honest kernel with its channels uncut, one per planted leak) gets the
// randomized check. An enumerable target (verifysys.ExhaustiveTargets, the
// names with a ':') gets the exhaustive sweep, which is shardable across
// processes:
//
//	sepverify -target T -shard 1/4 -shard-out s1.json -checkpoint s1.ck   # one resumable shard
//	sepverify -merge s0.json s1.json s2.json s3.json                      # fold shard artifacts
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
//	sepverify -witness-dir W       # persist replayable counterexample witnesses under W/<deployment>
//
// Each checked system prints one line, `name: SUMMARY [as expected]` or
// `[UNEXPECTED]`. Exit status is 0 when every verdict matches its
// registered expectation (a secure system passes, an insecure one is
// caught), 1 otherwise, and 2 on a usage or operational error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run carries the whole run so deferred cleanup (pprof stop, progress
// ticker shutdown) executes before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered names -target accepts")
	target := fs.String("target", "",
		"check one registered system: a kernel deployment (e.g. leak-RegisterLeak) or an exhaustive target (e.g. minisue:secure); see -list")
	trials := fs.Int("trials", 10, "random traces to explore per kernel deployment")
	steps := fs.Int("steps", 100, "states checked per trace")
	seed := fs.Int64("seed", 1, "exploration seed")
	sched := fs.Bool("sched", true, "include the scheduling-independence extension")
	workers := fs.Int("workers", 0,
		"checker goroutines to shard work across; 0 = one per CPU core (results are identical for any value)")
	shardSpec := fs.String("shard", "",
		"with an exhaustive -target: run only shard k/n of the chunked state space (0-based), e.g. 1/4")
	shardOut := fs.String("shard-out", "",
		"with an exhaustive -target: write the sealed shard-result artifact to this file")
	checkpoint := fs.String("checkpoint", "",
		"with an exhaustive -target: persist resumable progress to this file and resume from it when present")
	checkpointEvery := fs.Int("checkpoint-every", 0,
		"checkpoint cadence in folded chunks (0 = 8)")
	maxViolations := fs.Int("max-violations", 8,
		"counterexamples collected per condition in exhaustive sweeps")
	throttle := fs.Duration("throttle", 0,
		"sleep this long before each chunk (testing lever for kill/resume demos)")
	merge := fs.Bool("merge", false,
		"merge the shard-result files given as arguments into the combined verdict")
	metrics := fs.Bool("metrics", false,
		"collect verifier metrics and dump a throughput report after the run")
	metricsFormat := fs.String("metrics-format", "prom",
		"registry dump format with -metrics: prom (Prometheus text) or json")
	progress := fs.Bool("progress", false,
		"print periodic progress lines (trials/states so far) to stderr")
	listen := fs.String("listen", "",
		"serve live verifier counters at http://ADDR/metrics while the run lasts (e.g. :9090)")
	pprofFlag := fs.Bool("pprof", false,
		"with -listen: also serve net/http/pprof handlers under /debug/pprof/")
	witnessDir := fs.String("witness-dir", "",
		"capture each distinct kernel-deployment violation as a replayable witness artifact under DIR/<deployment> (see sepwitness)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *trials < 1 || *steps < 1 {
		fmt.Fprintln(stderr, "sepverify: -trials and -steps must be at least 1")
		return 2
	}

	systems := registry()
	if *list {
		for _, s := range systems {
			fmt.Fprintln(stdout, s.name)
		}
		return 0
	}

	if *metricsFormat != "prom" && *metricsFormat != "json" {
		fmt.Fprintf(stderr, "sepverify: unknown -metrics-format %q (want prom or json)\n", *metricsFormat)
		return 2
	}

	if *merge {
		return runMerge(stdout, stderr, fs.Args())
	}
	if *target != "" {
		i := slices.IndexFunc(systems, func(s system) bool { return s.name == *target })
		if i < 0 {
			fmt.Fprintf(stderr, "sepverify: unknown -target %q\n  deployments: %s\n  exhaustive targets: %s\n",
				*target, names(systems, false), names(systems, true))
			return 2
		}
		systems = systems[i : i+1]
	}
	exhaustiveOne := *target != "" && systems[0].enum != nil
	if !exhaustiveOne && (*shardSpec != "" || *shardOut != "" || *checkpoint != "") {
		fmt.Fprintln(stderr, "sepverify: -shard, -shard-out and -checkpoint require an exhaustive -target")
		return 2
	}
	if exhaustiveOne && *witnessDir != "" {
		fmt.Fprintln(stderr, "sepverify: -witness-dir requires a kernel deployment, not an exhaustive target")
		return 2
	}
	shard, shards, err := parseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(stderr, "sepverify:", err)
		return 2
	}
	if *pprofFlag && *listen == "" {
		fmt.Fprintln(stderr, "sepverify: -pprof requires -listen")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "sepverify:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "sepverify:", err)
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
				fmt.Fprintln(stderr, "sepverify:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "sepverify:", err)
			}
		}()
	}

	// One registry serves -metrics, -progress and the final report; every
	// checked system accumulates into it.
	var reg *obs.Registry
	if *metrics || *progress || *listen != "" || *witnessDir != "" {
		reg = obs.NewRegistry()
	}
	start := time.Now()
	if *progress {
		deployments := uint64(0)
		for _, s := range systems {
			if s.enum == nil {
				deployments++
			}
		}
		stop := startProgress(stderr, reg, deployments*uint64(*trials)*uint64(*steps))
		defer stop()
	}
	if *listen != "" {
		bound, shutdown, err := obs.ListenMetrics(*listen, reg,
			obs.ListenOptions{Pprof: *pprofFlag})
		if err != nil {
			fmt.Fprintln(stderr, "sepverify:", err)
			return 2
		}
		fmt.Fprintf(stderr, "serving metrics at http://%s/metrics\n", bound)
		defer shutdown()
	}

	ropt := separability.Options{
		Trials: *trials, StepsPerTrial: *steps, Seed: *seed, CheckScheduling: *sched,
		Workers: *workers, Metrics: reg,
	}
	xopt := separability.ExhaustiveOptions{
		MaxViolations: *maxViolations, Workers: *workers, Metrics: reg,
		Shard: shard, Shards: shards, Checkpoint: *checkpoint, CheckpointEvery: *checkpointEvery,
		ChunkDelay: *throttle,
	}
	status := 0
	for _, s := range systems {
		var good bool
		var err error
		if s.enum != nil {
			good, err = proveTarget(stdout, stderr, *s.enum, xopt, *shardOut)
		} else {
			good, err = checkDeployment(stdout, s.deploy, ropt, *witnessDir)
		}
		if err != nil {
			fmt.Fprintln(stderr, "sepverify:", err)
			return 2
		}
		if !good {
			status = 1
		}
	}

	if *metrics {
		reportMetrics(stdout, reg, time.Since(start), *metricsFormat)
	}
	return status
}

// A system is one name -target accepts: a kernel deployment, checked by
// the randomized checker, or an enumerable target (enum != nil), proved by
// the exhaustive sweep. The two registries' names are disjoint: only
// exhaustive target names contain a ':'.
type system struct {
	name   string
	deploy verifysys.NamedSpec
	enum   *verifysys.ExhaustiveTarget
}

// registry lists every registered deployment and exhaustive target, in
// name order.
func registry() []system {
	var out []system
	for _, d := range verifysys.DeploymentSpecs() {
		out = append(out, system{name: d.Name, deploy: d})
	}
	for _, t := range verifysys.ExhaustiveTargets() {
		out = append(out, system{name: t.Name, enum: &t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// names joins the registered names of one kind, for usage messages.
func names(systems []system, exhaustive bool) string {
	var out []string
	for _, s := range systems {
		if (s.enum != nil) == exhaustive {
			out = append(out, s.name)
		}
	}
	return strings.Join(out, " ")
}

// checkDeployment runs the randomized check on one registered kernel
// deployment and judges it against the registered verdict. With
// witnessDir set, every distinct violation is captured, shrunk and
// persisted under witnessDir/<deployment name>.
func checkDeployment(stdout io.Writer, d verifysys.NamedSpec, opt separability.Options, witnessDir string) (bool, error) {
	sys, err := verifysys.FromSpec(d.Spec)
	if err != nil {
		return false, err
	}
	res := separability.CheckRandomized(sys, opt)
	good := printVerdict(stdout, d.Name, res, d.Secure)
	if witnessDir != "" && !res.Passed() {
		dir := filepath.Join(witnessDir, d.Name)
		ws, err := witness.Capture(sys, opt, res, witness.Options{
			Dir: dir, Metrics: opt.Metrics, System: d.Spec})
		if err != nil {
			return false, fmt.Errorf("witness capture: %w", err)
		}
		dropped := 0
		for _, w := range ws {
			dropped += w.OrigSteps - len(w.Steps)
		}
		fmt.Fprintf(stdout, "    witnesses: %d captured -> %s (%d ops shrunk away)\n",
			len(ws), dir, dropped)
	}
	return good, nil
}

// proveTarget sweeps one registered enumerable target — or one shard of it
// — optionally persisting the sealed shard artifact and a resumable
// checkpoint. A single-shard run is judged against the target's registered
// verdict; a k/n shard carries no verdict of its own (the leak may live in
// another shard) and counts as good unless the sweep itself failed.
func proveTarget(stdout, stderr io.Writer, t verifysys.ExhaustiveTarget, opt separability.ExhaustiveOptions, shardOut string) (bool, error) {
	opt.Target = t.Name
	// Announce an adopted checkpoint before the sweep so supervisors (and
	// the fleet-smoke test) can observe that a restarted worker actually
	// resumed instead of starting over.
	if opt.Checkpoint != "" {
		ck, err := separability.ReadShardCheckpoint(opt.Checkpoint)
		if err != nil {
			return false, err
		}
		if ck != nil {
			fmt.Fprintf(stderr, "sepverify: resumed shard %d/%d of %s from %s (frontier %d of chunks [%d,%d))\n",
				ck.Shard, ck.Shards, t.Name, opt.Checkpoint, ck.Frontier, ck.StartChunk, ck.EndChunk)
		}
	}
	sr, err := separability.CheckExhaustiveShard(t.Build(), opt)
	if err != nil {
		return false, err
	}
	if shardOut != "" {
		if err := sr.WriteFile(shardOut); err != nil {
			return false, err
		}
	}
	res, err := sr.Result()
	if err != nil {
		return false, err
	}
	if opt.Shards > 1 {
		fmt.Fprintf(stdout, "%-22s shard %d/%d chunks [%d,%d): %s\n",
			t.Name+":", opt.Shard, opt.Shards, sr.StartChunk, sr.EndChunk, res.Summary())
		return true, nil
	}
	return printVerdict(stdout, t.Name, res, t.Secure), nil
}

// startProgress launches a ticker that reports verifier progress on stderr
// every half second; the returned func stops it and prints a final line.
// Lines carry live throughput (states/sec over a ~5s sliding window) and,
// when expectStates > 0, an ETA; exhaustive passes report percent of the
// enumerated space completed instead (from the sep_exh_* counters).
func startProgress(stderr io.Writer, reg *obs.Registry, expectStates uint64) (stop func()) {
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
			fmt.Fprintf(stderr, "progress: exhaustive %d/%d units (%.1f%%)\n",
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
		fmt.Fprintf(stderr, "progress: trials=%d states=%d violations=%d%s\n",
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
func reportMetrics(stdout io.Writer, reg *obs.Registry, elapsed time.Duration, format string) {
	sec := elapsed.Seconds()
	trials := reg.CounterValue("sep_trials_total")
	states := reg.CounterValue("sep_states_checked_total")
	fmt.Fprintf(stdout, "\nverifier throughput (%.3fs wall):\n", sec)
	fmt.Fprintf(stdout, "  trials: %d (%.1f/s)   states: %d (%.0f/s)\n",
		trials, float64(trials)/sec, states, float64(states)/sec)

	fmt.Fprintln(stdout, "  per-condition checks:")
	for _, cv := range reg.Counters() {
		if strings.HasPrefix(cv.Name, "sep_checks_total{") {
			fmt.Fprintf(stdout, "    %-40s %d\n", cv.Name, cv.Value)
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
		fmt.Fprintln(stdout, "  per-op checks:")
		for _, cv := range perOp {
			fmt.Fprintf(stdout, "    %-40s %d\n", cv.Name, cv.Value)
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
		fmt.Fprintln(stdout, "  per-worker:")
		for _, id := range ids {
			w := byWorker[id]
			busy := float64(w.busyUS) / 1e6
			sps := 0.0
			if busy > 0 {
				sps = float64(w.states) / busy
			}
			fmt.Fprintf(stdout, "    worker %-3s trials=%-4d states=%-7d busy=%.3fs (%.0f states/s)\n",
				id, w.trials, w.states, busy, sps)
		}
	}

	fmt.Fprintln(stdout, "\nmetrics:")
	if format == "json" {
		reg.WriteJSON(stdout)
		fmt.Fprintln(stdout)
	} else {
		reg.WritePrometheus(stdout)
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

// runMerge folds a complete set of shard-result files into the combined
// verdict, which is identical to an unsharded run of the same target. The
// exit status follows the target's expected verdict when the stamped target
// name is registered here.
func runMerge(stdout, stderr io.Writer, paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "sepverify: -merge needs shard-result files as arguments")
		return 2
	}
	srs := make([]*separability.ShardResult, 0, len(paths))
	for _, p := range paths {
		sr, err := separability.ReadShardResult(p)
		if err != nil {
			fmt.Fprintln(stderr, "sepverify:", err)
			return 2
		}
		srs = append(srs, sr)
	}
	res, err := separability.MergeShards(srs)
	if err != nil {
		fmt.Fprintln(stderr, "sepverify:", err)
		return 2
	}
	name := srs[0].Target
	if name == "" {
		fmt.Fprintf(stdout, "%-22s %s\n", "merged:", res.Summary())
		return 0
	}
	t, err := verifysys.FindExhaustiveTarget(name)
	if err != nil {
		fmt.Fprintf(stdout, "%-22s %s\n", name+":", res.Summary())
		return 0
	}
	if !printVerdict(stdout, name, res, t.Secure) {
		return 1
	}
	return 0
}

// printVerdict reports one system's result against its registered
// verdict, followed by the first violation of each violated condition, and
// reports whether the verdict was the expected one.
func printVerdict(stdout io.Writer, name string, res *separability.Result, expectSecure bool) bool {
	verdict := "as expected"
	good := res.Passed() == expectSecure
	if !good {
		verdict = "UNEXPECTED"
	}
	fmt.Fprintf(stdout, "%-22s %-60s [%s]\n", name+":", res.Summary(), verdict)
	if !res.Passed() {
		seen := map[separability.Condition]bool{}
		for _, v := range res.Violations {
			if seen[v.Condition] {
				continue
			}
			seen[v.Condition] = true
			fmt.Fprintf(stdout, "    %s\n", v)
		}
	}
	return good
}
