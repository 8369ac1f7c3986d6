package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/watch"
)

// A workload is one in-process client issuing requests in a closed loop:
// the next request starts when the previous one returns.
type workload interface {
	// setUp prepares a run in dir: system builds, temp dirs and one
	// untimed warm-up request or round.
	setUp(dir string) error
	// do issues request i. With a tracer, the request runs through the
	// timing shim and its layers are called one by one, each timed.
	do(i int, tr *tracer) outcome
}

// outcome is what one request produced.
type outcome struct {
	checks  int    // condition instances verified
	verdict string // what traced and untraced runs of a request must agree on
	ok      bool   // the verdict is the expected one and nothing failed
}

type workloadDef struct {
	name string
	// perRound requests make one round; a run issues whole rounds, so
	// every run sees the same mix of requests.
	perRound int
	// fixedRounds, when set, is the run length in rounds per refSeconds
	// of --seconds. Otherwise a run issues rounds until --seconds have
	// passed.
	fixedRounds int
	// make builds the workload from the run seed; workers is the checker
	// worker count.
	make func(seed int64, workers int) (workload, error)
}

// refSeconds is the --seconds value fixedRounds is set for.
const refSeconds = 30

// watch_cycles has a fixed length because a cycle's cost grows with the
// ledger depth: a time-bounded run would give a faster program deeper
// ledgers and so slower cycles. 50 cycles take 18–28 s on a 2-core host.
var workloads = []workloadDef{
	{"randomized_registry", 9, 0, newRandomized},
	{"sharded_minisue", 4, 0, newSharded},
	{"watch_cycles", 1, 50, newWatch},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// fixedRequests is the request count of a fixed-length run, the same on
// every commit, or 0 for a time-bounded one.
func (d workloadDef) fixedRequests(seconds int) int {
	if d.fixedRounds == 0 {
		return 0
	}
	rounds := max(1, (d.fixedRounds*seconds+refSeconds/2)/refSeconds)
	return rounds * d.perRound
}

// deriveSeed gives request i its own seed: a SplitMix64 step of the run
// seed, so the inputs are a pure function of (seed, i).
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func totalChecks(res *separability.Result) int {
	n := 0
	for _, c := range res.Checks {
		n += c
	}
	return n
}

func verdictOf(res *separability.Result, secure bool) outcome {
	return outcome{checks: totalChecks(res), verdict: res.Summary(), ok: res.Passed() == secure}
}

func failure(err error) outcome { return outcome{verdict: "error: " + err.Error()} }

// randomizedOptions are the sepverify/sepwatch defaults.
func randomizedOptions(seed int64, workers int) separability.Options {
	return separability.Options{Trials: 10, StepsPerTrial: 100, InputEvery: 8,
		CheckScheduling: true, Seed: seed, Workers: workers}
}

// randomized is W1: FromSpec plus CheckRandomized over the deployment
// registry, round-robin, one derived checker seed per request.
type randomized struct {
	seed    int64
	workers int
	specs   []verifysys.NamedSpec
}

func newRandomized(seed int64, workers int) (workload, error) {
	return &randomized{seed: seed, workers: workers, specs: verifysys.DeploymentSpecs()}, nil
}

// setUp builds and checks every deployment once: the warm-up round.
func (w *randomized) setUp(string) error {
	for i := range w.specs {
		if o := w.do(i, nil); !o.ok {
			return fmt.Errorf("warm-up %s: %s", w.specs[i].Name, o.verdict)
		}
	}
	return nil
}

func (w *randomized) do(i int, tr *tracer) outcome {
	d := w.specs[i%len(w.specs)]
	tr.beginRequest(d.Name)
	defer tr.endRequest()
	var sys *kernel.Adapter
	var err error
	tr.timed("verifysys.from_spec", func() { sys, err = verifysys.FromSpec(d.Spec) })
	if err != nil {
		return failure(err)
	}
	var p model.Perturbable = sys
	if tr != nil {
		p = tr.kernelShim(sys)
	}
	var res *separability.Result
	tr.timed("separability.check", func() {
		res = separability.CheckRandomized(p, randomizedOptions(deriveSeed(w.seed, i), w.workers))
	})
	return verdictOf(res, d.Secure)
}

// minisueTargets returns the registered MiniSUE exhaustive targets.
func minisueTargets() []verifysys.ExhaustiveTarget {
	var out []verifysys.ExhaustiveTarget
	for _, t := range verifysys.ExhaustiveTargets() {
		if strings.HasPrefix(t.Name, "minisue:") {
			out = append(out, t)
		}
	}
	return out
}

// roundTarget is the target of request i when rounds over m targets each
// go in their own seeded order.
func roundTarget(seed int64, i, m int) int {
	return rand.New(rand.NewSource(deriveSeed(seed, i/m))).Perm(m)[i%m]
}

func prove(sys model.Enumerable, name string, workers int) (*separability.Result, error) {
	sr, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		Workers: workers, Target: name})
	if err != nil {
		return nil, err
	}
	return sr.Result()
}

// unshardedSummaries is the oracle the merged shard results must equal:
// each MiniSUE target's unsharded verdict, computed once per process.
var unshardedSummaries = sync.OnceValues(func() (map[string]string, error) {
	out := map[string]string{}
	for _, t := range minisueTargets() {
		res, err := prove(t.Build(), t.Name, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		out[t.Name] = res.Summary()
	}
	return out, nil
})

// sharded is W2: each MiniSUE target as 2 shards with checkpoint files,
// shard result files and a merge from disk. With 2 workers the shards run
// concurrently, 1 worker each; with 1 they run one after another.
type sharded struct {
	seed    int64
	workers int
	targets []verifysys.ExhaustiveTarget
	oracle  map[string]string
	dir     string
	seq     int // names each request's artifact directory
}

const shardCount = 2

func newSharded(seed int64, workers int) (workload, error) {
	oracle, err := unshardedSummaries()
	if err != nil {
		return nil, err
	}
	return &sharded{seed: seed, workers: workers, targets: minisueTargets(), oracle: oracle}, nil
}

func (w *sharded) setUp(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.dir = dir
	if o := w.request(w.targets[0], nil); !o.ok {
		return fmt.Errorf("warm-up %s: %s", w.targets[0].Name, o.verdict)
	}
	return nil
}

func (w *sharded) do(i int, tr *tracer) outcome {
	return w.request(w.targets[roundTarget(w.seed, i, len(w.targets))], tr)
}

// request proves t as shardCount shards and merges the shard files.
func (w *sharded) request(t verifysys.ExhaustiveTarget, tr *tracer) outcome {
	tr.beginRequest(t.Name)
	defer tr.endRequest()
	w.seq++
	dir := filepath.Join(w.dir, fmt.Sprintf("req-%d", w.seq))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return failure(err)
	}
	paths := make([]string, shardCount)
	errs := make([]error, shardCount)
	shard := func(k int) {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", k))
		ckPath := filepath.Join(dir, fmt.Sprintf("checkpoint-%d.json", k))
		var sys model.Enumerable = t.Build()
		if tr != nil {
			sys = tr.shim(sys, "minisue")
		}
		opt := separability.ExhaustiveOptions{Shard: k, Shards: shardCount, Workers: 1,
			Target: t.Name, Checkpoint: ckPath}
		var sr *separability.ShardResult
		tr.timed("separability.shard", func() { sr, errs[k] = separability.CheckExhaustiveShard(sys, opt) })
		if errs[k] != nil {
			return
		}
		tr.timed("separability.shard_write", func() { errs[k] = sr.WriteFile(paths[k]) })
		if tr == nil {
			return
		}
		for name, p := range map[string]string{"shard_bytes": paths[k], "checkpoint_bytes": ckPath} {
			if fi, err := os.Stat(p); err == nil {
				tr.tally(name).add(fi.Size())
			}
		}
	}
	if w.workers > 1 {
		var wg sync.WaitGroup
		for k := range shardCount {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shard(k)
			}()
		}
		wg.Wait()
	} else {
		for k := range shardCount {
			shard(k)
		}
	}
	for _, err := range errs {
		if err != nil {
			return failure(err)
		}
	}
	var res *separability.Result
	var err error
	tr.timed("separability.merge_files", func() { res, err = separability.MergeShardFiles(paths) })
	if err != nil {
		return failure(err)
	}
	o := verdictOf(res, t.Secure)
	if want := w.oracle[t.Name]; o.verdict != want {
		o.ok = false
		o.verdict += " (unsharded: " + want + ")"
	}
	return o
}

// benchBuild stamps the benchmark's ledger records.
var benchBuild = watch.BuildInfo{GoVersion: runtime.Version(), Label: "sepbench"}

// watchCycles is W3: a sepwatch cycle over the deployment registry, then
// a Status poll, on ledgers that grow by one record per cycle. Each
// deployment has its own Watcher with its own derived seed: the seed sets
// the length of the captured trace, which varies threefold between seeds,
// so a cycle averages nine independent seeds instead of sharing one.
type watchCycles struct {
	seed     int64
	workers  int
	reg      *obs.Registry
	watchers []*watch.Watcher
}

func newWatch(seed int64, workers int) (workload, error) {
	return &watchCycles{seed: seed, workers: workers}, nil
}

// setUp creates the watch directory and runs the baseline cycle.
func (w *watchCycles) setUp(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.reg = obs.NewRegistry()
	w.watchers = nil
	for i, d := range watch.Deployments() {
		seed := deriveSeed(w.seed, i)
		if seed == 0 {
			seed = 1 // 0 selects the watcher's default seed
		}
		w.watchers = append(w.watchers, watch.New(watch.Config{Dir: dir,
			Deployments: []watch.Deployment{d}, Seed: seed, Workers: w.workers,
			Build: benchBuild, Metrics: w.reg}))
	}
	if o := w.do(0, nil); !o.ok {
		return fmt.Errorf("baseline cycle: %s", o.verdict)
	}
	return nil
}

func (w *watchCycles) checksTotal() int {
	n := 0
	for _, c := range w.reg.Counters() {
		if strings.HasPrefix(c.Name, "sep_checks_total{") {
			n += int(c.Value)
		}
	}
	return n
}

// do runs one cycle: Watcher.RunCycle per deployment, or with a tracer
// the watch layer's pieces one by one (mirrorDeployment).
func (w *watchCycles) do(i int, tr *tracer) outcome {
	if tr == nil {
		before := w.checksTotal()
		errs := 0
		for _, wt := range w.watchers {
			errs += wt.RunCycle().Errors
		}
		o := w.status()
		o.checks = w.checksTotal() - before
		if errs > 0 {
			o.ok = false
			o.verdict += fmt.Sprintf(" (%d deployment errors)", errs)
		}
		return o
	}

	tr.beginRequest(fmt.Sprintf("cycle %d", i))
	defer tr.endRequest()
	head := *tr.tally("watch.ledger_head")
	checks, ok := 0, true
	var ledgerBytes tally
	for _, wt := range w.watchers {
		cfg := wt.Config()
		d := cfg.Deployments[0]
		tr.open("watch.deployment", d.Name)
		rec, err := mirrorDeployment(cfg, d, tr)
		tr.tally("watch.deployment").add(tr.close())
		if err != nil {
			return failure(err)
		}
		checks += rec.Checks
		ok = ok && rec.Passed == d.Secure
		if fi, err := os.Stat(filepath.Join(cfg.Dir, d.Name, "ledger.jsonl")); err == nil {
			ledgerBytes.add(fi.Size())
		}
	}
	last := *tr.tally("watch.ledger_head")
	tr.acc["ledger_head_last"] = &tally{last.n - head.n, last.sum - head.sum}
	tr.acc["ledger_bytes"] = &ledgerBytes

	var o outcome
	tr.timed("watch.status", func() { o = w.status() })
	o.checks = checks
	o.ok = o.ok && ok
	return o
}

// status polls every watcher. Every deployment must be healthy, and the
// rows are what traced and untraced cycles must agree on.
func (w *watchCycles) status() outcome {
	o := outcome{ok: true}
	var b strings.Builder
	for _, wt := range w.watchers {
		st, err := wt.Status()
		if err != nil {
			return failure(err)
		}
		for _, d := range st.Deployments {
			fmt.Fprintf(&b, "%s builds=%d passed=%t digest=%s drift=%d; ",
				d.Name, d.Builds, d.Passed, d.TraceDigest, len(d.Drift))
			o.ok = o.ok && d.Healthy
		}
	}
	o.verdict = b.String()
	return o
}
