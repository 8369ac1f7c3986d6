// Command sepwatch continuously re-verifies a registry of named kernel
// deployments and maintains a tamper-evident drift ledger per deployment:
// the continuous-deployment answer to "is the kernel we are running today
// still the kernel we verified?".
//
//	sepwatch serve -dir watch/ -addr :9190 -interval 30s
//	    run verification cycles forever (-cycles N to stop after N, as the
//	    CI smoke does), serving /status JSON and /metrics beside the
//	    ledgers. Every cycle re-verifies each deployment from a fresh
//	    build, captures the canonical trace, and appends a content-
//	    addressed, hash-chained build record; consecutive records are
//	    diffed down to the first divergent event and classified
//	    (verdict-flip, digest-drift, channel-regression).
//
//	sepwatch check [-override-leak L] [-override-cut] [deployment...]
//	    one-shot verification of the named deployments (default: the full
//	    spec registry), appending one record each. The -override flags
//	    verify the deployment with a silently modified spec under its
//	    original name — a controlled reproduction of a deployment changing
//	    under an unchanged label, which the next ledger diff then catches.
//	    Exits 2 if any appended record classifies drift.
//
//	sepwatch history [-deployment D]
//	    print each deployment's validated ledger, one line per build
//	    record (chain-verified; a tampered ledger refuses to decode).
//
//	sepwatch diff -deployment D [-a SEQ] [-b SEQ]
//	    re-classify drift between two records of a deployment's ledger
//	    (default: the two newest), reloading their trace blobs to locate
//	    the first divergent event. Exits 1 if the pair drifted.
//
// All subcommands take -dir (the watch directory, default "watch") and
// the verification knobs -seed/-trials/-steps/-tracesteps/-workers.
// -build LABEL stamps records from unstamped binaries; otherwise the VCS
// revision embedded by the Go toolchain identifies the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	switch args[0] {
	case "serve":
		return cmdServe(args[1:], out, errw)
	case "check":
		return cmdCheck(args[1:], out, errw)
	case "history":
		return cmdHistory(args[1:], out, errw)
	case "diff":
		return cmdDiff(args[1:], out, errw)
	case "-h", "-help", "--help", "help":
		usage(errw)
		return 0
	}
	fmt.Fprintf(errw, "sepwatch: unknown subcommand %q\n", args[0])
	usage(errw)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  sepwatch serve   [-dir D] [-addr A] [-interval T] [-cycles N] [-deployments a,b] [-exhaustive] [-log F] [verification flags]
  sepwatch check   [-dir D] [-override-leak L] [-override-cut] [-log F] [verification flags] [deployment...]
  sepwatch history [-dir D] [-deployment D]
  sepwatch diff    [-dir D] -deployment D [-a SEQ] [-b SEQ]
verification flags: -seed S -trials N -steps N -tracesteps N -workers N -shards N -nosched -build LABEL
`)
}

// watchFlags wires the shared Config knobs into a FlagSet.
type watchFlags struct {
	dir         *string
	seed        *int64
	trials      *int
	steps       *int
	traceSteps  *int
	workers     *int
	shards      *int
	nosched     *bool
	build       *string
	deployments *string
	exhaustive  *bool
	logPath     *string
}

func addWatchFlags(fs *flag.FlagSet) *watchFlags {
	return &watchFlags{
		dir:         fs.String("dir", "watch", "watch directory (one ledger per deployment)"),
		seed:        fs.Int64("seed", 0, "checker and trace seed (0 = default; fixed across cycles by design)"),
		trials:      fs.Int("trials", 0, "randomized trials per deployment (0 = default)"),
		steps:       fs.Int("steps", 0, "states checked per trial (0 = default)"),
		traceSteps:  fs.Int("tracesteps", 0, "canonical trace walk length (0 = default)"),
		workers:     fs.Int("workers", 0, "checker worker goroutines (0 = one per core)"),
		shards:      fs.Int("shards", 0, "shards per exhaustive sweep (0 = default)"),
		nosched:     fs.Bool("nosched", false, "disable the scheduling-independence extension"),
		build:       fs.String("build", "", "build label stamped into records (default: VCS revision)"),
		deployments: fs.String("deployments", "", "comma-separated deployment names (default: full spec registry)"),
		exhaustive:  fs.Bool("exhaustive", false, "also watch the enumerable exhaustive targets"),
		logPath:     fs.String("log", "", "append JSONL event log to this file"),
	}
}

// config resolves flags into a watch.Config plus a close function for the
// log file.
func (wf *watchFlags) config(errw io.Writer) (watch.Config, func(), bool) {
	cfg := watch.Config{
		Dir:  *wf.dir,
		Seed: *wf.seed, Trials: *wf.trials, StepsPerTrial: *wf.steps,
		TraceSteps: *wf.traceSteps, Workers: *wf.workers,
		ExhaustiveShards: *wf.shards, NoScheduling: *wf.nosched,
		Build:   watch.CurrentBuild(*wf.build),
		Metrics: obs.NewRegistry(),
	}
	closeLog := func() {}
	if *wf.trials < 0 || *wf.steps < 0 || *wf.traceSteps < 0 || *wf.shards < 0 {
		fmt.Fprintln(errw, "sepwatch: -trials, -steps, -tracesteps and -shards must not be negative (0 = default)")
		return cfg, closeLog, false
	}
	if *wf.logPath != "" {
		f, err := os.OpenFile(*wf.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return cfg, closeLog, false
		}
		cfg.Log = f
		closeLog = func() { f.Close() }
	}
	if *wf.deployments != "" {
		for _, name := range strings.Split(*wf.deployments, ",") {
			d, ok := watch.FindDeployment(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(errw, "sepwatch: unknown deployment %q\n", name)
				closeLog()
				return cfg, func() {}, false
			}
			cfg.Deployments = append(cfg.Deployments, d)
		}
	} else {
		cfg.Deployments = watch.Deployments()
		if *wf.exhaustive {
			cfg.Deployments = append(cfg.Deployments, watch.ExhaustiveDeployments()...)
		}
	}
	return cfg, closeLog, true
}

func cmdServe(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sepwatch serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	wf := addWatchFlags(fs)
	addr := fs.String("addr", "127.0.0.1:0", "serve /status and /metrics on this address ('' = no server)")
	interval := fs.Duration("interval", 30*time.Second, "pause between cycles")
	cycles := fs.Int("cycles", 0, "stop after this many cycles (0 = run forever)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(errw, "sepwatch serve: unexpected arguments; use -deployments")
		return 2
	}
	cfg, closeLog, ok := wf.config(errw)
	if !ok {
		return 2
	}
	defer closeLog()
	w := watch.New(cfg)

	if *addr != "" {
		bound, shutdown, err := obs.ListenMetrics(*addr, cfg.Metrics, obs.ListenOptions{
			Handlers: map[string]http.Handler{"/status": w.StatusHandler()},
		})
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
		defer shutdown()
		fmt.Fprintf(out, "sepwatch: serving http://%s/status and /metrics\n", bound)
	}

	fmt.Fprintf(out, "sepwatch: watching %d deployments in %s (build %s)\n",
		len(cfg.Deployments), cfg.Dir, cfg.Build)
	for n := 1; ; n++ {
		res := w.RunCycle()
		fmt.Fprintf(out, "cycle %d: %d deployments, %d drift, %d verdict flips, %d errors\n",
			res.Cycle, res.Deployments, res.Drift, res.VerdictFlips, res.Errors)
		if *cycles > 0 && n >= *cycles {
			break
		}
		time.Sleep(*interval)
	}
	return 0
}

func cmdCheck(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sepwatch check", flag.ContinueOnError)
	fs.SetOutput(errw)
	wf := addWatchFlags(fs)
	overrideLeak := fs.String("override-leak", "", "verify with this leak silently planted in the spec")
	overrideCut := fs.Bool("override-cut", false, "verify with the spec's channel cut silently toggled")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, closeLog, ok := wf.config(errw)
	if !ok {
		return 2
	}
	defer closeLog()

	targets := cfg.Deployments
	if fs.NArg() > 0 {
		targets = nil
		for _, name := range fs.Args() {
			d, ok := watch.FindDeployment(name)
			if !ok {
				fmt.Fprintf(errw, "sepwatch: unknown deployment %q\n", name)
				return 2
			}
			targets = append(targets, d)
		}
	}
	w := watch.New(cfg)

	drifted := false
	for _, d := range targets {
		if *overrideLeak != "" || *overrideCut {
			if d.Target != "" {
				fmt.Fprintf(errw, "sepwatch: cannot override the spec of exhaustive deployment %q\n", d.Name)
				return 2
			}
			// The silent change under an unchanged name: the ledger keeps
			// recording under d.Name while the verified system differs.
			spec := d.Spec
			if *overrideLeak != "" {
				spec.Leak = *overrideLeak
			}
			if *overrideCut {
				spec.Cut = !spec.Cut
			}
			d.Spec = spec
		}
		rec, err := w.CheckDeployment(d)
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
		fmt.Fprintln(out, recordLine(rec))
		for _, dr := range rec.Drift {
			drifted = true
			fmt.Fprintf(out, "  drift %s\n", dr)
		}
	}
	if drifted {
		return 2
	}
	return 0
}

func cmdHistory(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sepwatch history", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "watch", "watch directory")
	deployment := fs.String("deployment", "", "show only this deployment's ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := fs.Args()
	if *deployment != "" {
		names = append(names, *deployment)
	}
	if len(names) == 0 {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
		for _, e := range entries {
			if e.IsDir() {
				names = append(names, e.Name())
			}
		}
	}
	for _, name := range names {
		led, err := watch.OpenLedger(*dir, name)
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
		recs, err := led.Records()
		if err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
		fmt.Fprintf(out, "%s: %d builds\n", name, len(recs))
		for _, r := range recs {
			fmt.Fprintf(out, "  %s\n", recordLine(r))
			for _, dr := range r.Drift {
				fmt.Fprintf(out, "    drift %s\n", dr)
			}
		}
	}
	return 0
}

func recordLine(r *watch.Record) string {
	verdict := "PASS"
	if !r.Passed {
		verdict = fmt.Sprintf("FAIL(%d violations)", len(r.Violations))
	}
	mode := fmt.Sprintf("randomized %dx%d", r.Trials, r.Steps)
	if r.Exhaustive != "" {
		mode = fmt.Sprintf("exhaustive %s/%d shards", r.Exhaustive, r.Shards)
	}
	return fmt.Sprintf("%s seq=%d id=%s %s %s digest=%s drift=%d build=%s",
		r.Deployment, r.Seq, r.ID, verdict, mode, r.TraceDigest, len(r.Drift), r.Build)
}

func cmdDiff(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sepwatch diff", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "watch", "watch directory")
	deployment := fs.String("deployment", "", "deployment ledger to diff (required)")
	aSeq := fs.Int("a", 0, "older record sequence number (0 = second newest)")
	bSeq := fs.Int("b", 0, "newer record sequence number (0 = newest)")
	format := fs.String("format", "text", "report format: text or json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *deployment == "" && fs.NArg() == 1 {
		*deployment = fs.Arg(0)
	}
	if *deployment == "" {
		fmt.Fprintln(errw, "sepwatch diff: -deployment required")
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(errw, "sepwatch diff: unknown -format %q (want text or json)\n", *format)
		return 2
	}
	led, err := watch.OpenLedger(*dir, *deployment)
	if err != nil {
		fmt.Fprintln(errw, "sepwatch:", err)
		return 2
	}
	recs, err := led.Records()
	if err != nil {
		fmt.Fprintln(errw, "sepwatch:", err)
		return 2
	}
	if len(recs) < 2 {
		fmt.Fprintf(errw, "sepwatch diff: %s has %d builds; need two to diff\n", *deployment, len(recs))
		return 2
	}
	pick := func(seq, dflt int) (*watch.Record, error) {
		if seq == 0 {
			seq = dflt
		}
		if seq < 1 || seq > len(recs) {
			return nil, fmt.Errorf("sepwatch diff: seq %d out of range 1..%d", seq, len(recs))
		}
		return recs[seq-1], nil
	}
	a, err := pick(*aSeq, len(recs)-1)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	b, err := pick(*bSeq, len(recs))
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	aTrace, _ := led.LoadTrace(a)
	bTrace, _ := led.LoadTrace(b)
	drift := watch.ClassifyDrift(a, b, aTrace, bTrace)

	if *format == "json" {
		report := struct {
			Deployment string        `json:"deployment"`
			A          string        `json:"a"`
			B          string        `json:"b"`
			Drift      []watch.Drift `json:"drift"`
		}{Deployment: *deployment, A: a.ID, B: b.ID, Drift: drift}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(errw, "sepwatch:", err)
			return 2
		}
	} else {
		fmt.Fprintf(out, "%s: seq %d (%s, build %s) -> seq %d (%s, build %s)\n",
			*deployment, a.Seq, a.ID, a.Build, b.Seq, b.ID, b.Build)
		if len(drift) == 0 {
			fmt.Fprintln(out, "no drift")
		}
		for _, dr := range drift {
			fmt.Fprintf(out, "  drift %s\n", dr)
		}
	}
	if len(drift) > 0 {
		return 1
	}
	return 0
}
