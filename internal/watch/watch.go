// Package watch implements continuous re-verification of deployed kernel
// configurations: the observability layer that closes the loop between
// "the kernel was verified once" and "the kernel we are running today is
// still the kernel we verified".
//
// A Watcher owns a registry of named deployments (package verifysys's
// NamedSpec registry plus, optionally, the enumerable exhaustive targets)
// and a watch directory. Every cycle it re-verifies each deployment from a
// freshly built system, captures the canonical deployment trace, computes
// per-regime Φ^c trace digests, and appends a content-addressed,
// hash-chained build record to the deployment's ledger. Consecutive
// records are diffed down to the first divergent event and classified
// (ClassifyDrift): a deployment that silently changes between builds
// surfaces as drift against its own history, not as a diff against some
// external oracle.
//
// The surfaces are cmd/sepwatch's: a /status JSON endpoint, /metrics
// gauges and counters, a structured JSONL event log, and the ledgers
// themselves (readable offline by `sepwatch history` and `sepwatch
// diff`).
package watch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// CurrentBuild stamps the running binary's identity: the Go toolchain
// version, the VCS revision embedded by the toolchain when the binary was
// built from a checkout, and an optional operator label (`sepwatch
// -build`) for binaries with no embedded stamp. Every ledger record
// carries this, so drift can be attributed to a build, not just a time.
func CurrentBuild(label string) BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), Label: label}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Revision = s.Value
			case "vcs.modified":
				b.Dirty = s.Value == "true"
			}
		}
	}
	return b
}

// A Deployment is one named configuration under watch. Exactly one of
// Spec (randomized checking of a verifysys build, with trace capture) or
// Target (sharded exhaustive sweep of a registered enumerable target, no
// trace) drives verification.
type Deployment struct {
	// Name is the ledger directory name: stable and filesystem-safe.
	Name string `json:"name"`
	// Spec rebuilds the system via verifysys.FromSpec when Target is "".
	Spec witness.SystemSpec `json:"spec"`
	// Secure is the expected verdict; Passed != Secure is unhealthy even
	// with an empty drift list.
	Secure bool `json:"secure"`
	// Target names a verifysys exhaustive target ("" = spec-based).
	Target string `json:"target,omitempty"`
}

// Deployments returns the spec-based watch registry: one Deployment per
// verifysys.DeploymentSpecs entry.
func Deployments() []Deployment {
	var out []Deployment
	for _, d := range verifysys.DeploymentSpecs() {
		out = append(out, Deployment{Name: d.Name, Spec: d.Spec, Secure: d.Secure})
	}
	return out
}

// ExhaustiveDeployments returns the target-based registry: one Deployment
// per registered exhaustive target, renamed filesystem-safe
// ("minisue:secure" -> "minisue-secure") because each owns a ledger
// directory.
func ExhaustiveDeployments() []Deployment {
	var out []Deployment
	for _, t := range verifysys.ExhaustiveTargets() {
		out = append(out, Deployment{
			Name:   strings.ReplaceAll(t.Name, ":", "-"),
			Secure: t.Secure,
			Target: t.Name,
		})
	}
	return out
}

// FindDeployment resolves a name against both registries.
func FindDeployment(name string) (Deployment, bool) {
	for _, d := range append(Deployments(), ExhaustiveDeployments()...) {
		if d.Name == name {
			return d, true
		}
	}
	return Deployment{}, false
}

// Config parameterizes a Watcher. The zero value of every numeric field
// selects a default tuned so the full spec-based registry verifies in
// seconds while still catching every planted leak (the same parameters
// the kernel verification tests use).
type Config struct {
	// Dir is the watch directory: one ledger subdirectory per deployment.
	Dir string
	// Deployments is the watch list (nil = the spec-based registry).
	Deployments []Deployment

	// Seed seeds both the randomized checker and the canonical trace walk
	// (0 = 99). Fixed across cycles by design: an unchanged deployment
	// must produce an identical trace, so that a changed digest means a
	// changed deployment.
	Seed int64
	// Trials/StepsPerTrial/InputEvery tune randomized checking
	// (0 = 10/100/8).
	Trials        int
	StepsPerTrial int
	InputEvery    int
	// NoScheduling disables the scheduling-independence extension (on by
	// default; needed to catch pure scheduling leaks).
	NoScheduling bool
	// TraceSteps is the canonical trace walk length (0 = 160).
	TraceSteps int
	// Workers parallelizes checking (0 = one per core).
	Workers int
	// ExhaustiveShards shards target-based sweeps (0 = 2); the shard
	// results are merged before the verdict is recorded, exercising the
	// same artifact path a distributed fleet uses.
	ExhaustiveShards int

	// Build identifies the verifying build (zero value = CurrentBuild("")).
	Build BuildInfo
	// Metrics receives the sep_watch_* counters and gauges plus the
	// checker's own sep_* counters (nil = a private registry).
	Metrics *obs.Registry
	// Log, when non-nil, receives one JSON line per deployment check and
	// per completed cycle.
	Log io.Writer
}

func (c *Config) fill() {
	if c.Deployments == nil {
		c.Deployments = Deployments()
	}
	if c.Seed == 0 {
		c.Seed = 99
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.StepsPerTrial == 0 {
		c.StepsPerTrial = 100
	}
	if c.InputEvery == 0 {
		c.InputEvery = 8
	}
	if c.TraceSteps == 0 {
		c.TraceSteps = 160
	}
	if c.ExhaustiveShards == 0 {
		c.ExhaustiveShards = 2
	}
	if c.Build == (BuildInfo{}) {
		c.Build = CurrentBuild("")
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Watcher runs verification cycles over a deployment registry. One
// goroutine drives cycles; Status and StatusHandler are safe to call
// concurrently with a running cycle.
type Watcher struct {
	cfg Config
	// now is the clock, overridable in tests so ledger timestamps and age
	// gauges are deterministic.
	now func() time.Time

	mu        sync.Mutex
	cycles    int
	lastCycle time.Time
}

// New creates a Watcher; cfg defaults are filled here.
func New(cfg Config) *Watcher {
	cfg.fill()
	return &Watcher{cfg: cfg, now: time.Now}
}

// Config returns the watcher's filled configuration.
func (w *Watcher) Config() Config { return w.cfg }

// CheckOutcome is one deployment check's summary, as the JSONL event log
// records it.
type CheckOutcome struct {
	Time       int64   `json:"time"`
	Deployment string  `json:"deployment"`
	Record     string  `json:"record,omitempty"`
	Seq        int     `json:"seq,omitempty"`
	Passed     bool    `json:"passed"`
	Expected   bool    `json:"expected"`
	Digest     string  `json:"digest,omitempty"`
	Drift      []Drift `json:"drift,omitempty"`
	Build      string  `json:"build,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// CycleResult summarizes one full pass over the registry.
type CycleResult struct {
	Cycle        int    `json:"cycle"`
	Time         int64  `json:"time"`
	Deployments  int    `json:"deployments"`
	Drift        int    `json:"drift"`
	VerdictFlips int    `json:"verdictFlips"`
	Errors       int    `json:"errors"`
	Event        string `json:"event"`
}

// RunCycle re-verifies every configured deployment once, appending one
// ledger record each. A deployment that errors is logged and counted but
// does not stop the cycle.
func (w *Watcher) RunCycle() CycleResult {
	w.mu.Lock()
	w.cycles++
	cycle := w.cycles
	w.mu.Unlock()

	res := CycleResult{Cycle: cycle, Time: w.now().Unix(), Event: "cycle"}
	for _, d := range w.cfg.Deployments {
		rec, err := w.CheckDeployment(d)
		res.Deployments++
		if err != nil {
			res.Errors++
			w.cfg.Metrics.Counter("sep_watch_errors_total").Inc()
			w.logJSON(CheckOutcome{Time: w.now().Unix(), Deployment: d.Name,
				Expected: d.Secure, Err: err.Error()})
			continue
		}
		res.Drift += len(rec.Drift)
		for _, dr := range rec.Drift {
			if dr.Kind == DriftVerdictFlip {
				res.VerdictFlips++
			}
		}
	}
	w.cfg.Metrics.Counter("sep_watch_cycles_total").Inc()
	w.mu.Lock()
	w.lastCycle = w.now()
	w.mu.Unlock()
	w.logJSON(res)
	return res
}

// CheckDeployment verifies one deployment and appends the build record to
// its ledger. The deployment need not come from the registry: `sepwatch
// check -override-leak` passes a registry name with a silently modified
// spec, which is exactly how a deployment drifts in the wild.
func (w *Watcher) CheckDeployment(d Deployment) (*Record, error) {
	led, err := OpenLedger(w.cfg.Dir, d.Name)
	if err != nil {
		return nil, err
	}
	rec := &Record{
		Deployment: d.Name, Spec: d.Spec, Build: w.cfg.Build,
		Time: w.now().Unix(), Seed: w.cfg.Seed,
	}
	var trace []obs.Event
	var blob []byte
	if d.Target != "" {
		if err := w.checkExhaustive(d, rec); err != nil {
			return nil, err
		}
	} else {
		if trace, blob, err = w.checkSpec(d, rec); err != nil {
			return nil, err
		}
	}

	head, err := led.Head()
	if err != nil {
		return nil, fmt.Errorf("watch: %s: reading ledger: %w", d.Name, err)
	}
	var prevTrace []obs.Event
	if head != nil && head.TraceDigest != rec.TraceDigest {
		// ClassifyDrift reads the previous trace only to locate a digest
		// drift. A missing or corrupt blob degrades drift location
		// (DivergeAt -1), it does not block recording.
		prevTrace, _ = led.LoadTrace(head)
	}
	rec.Drift = ClassifyDrift(head, rec, prevTrace, trace)
	if err := led.Append(rec, blob); err != nil {
		return nil, fmt.Errorf("watch: %s: appending record: %w", d.Name, err)
	}
	w.observe(d, rec)
	return rec, nil
}

// checkSpec runs the spec-based path: canonical trace capture on one
// fresh build, randomized verification on another (so the verification
// walk can never perturb the recorded trace).
func (w *Watcher) checkSpec(d Deployment, rec *Record) ([]obs.Event, []byte, error) {
	tsys, err := verifysys.FromSpec(d.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("watch: %s: building trace system: %w", d.Name, err)
	}
	trace := CaptureTrace(tsys, w.cfg.Seed, w.cfg.TraceSteps, w.cfg.InputEvery)

	vsys, err := verifysys.FromSpec(d.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("watch: %s: building verify system: %w", d.Name, err)
	}
	res := separability.CheckRandomized(vsys, separability.Options{
		Trials: w.cfg.Trials, StepsPerTrial: w.cfg.StepsPerTrial,
		Seed: w.cfg.Seed, InputEvery: w.cfg.InputEvery,
		CheckScheduling: !w.cfg.NoScheduling,
		Workers:         w.cfg.Workers, Metrics: w.cfg.Metrics,
	})
	rec.Trials, rec.Steps = w.cfg.Trials, w.cfg.StepsPerTrial
	fillResult(rec, res)

	rec.TraceSteps, rec.TraceEvents = w.cfg.TraceSteps, len(trace)
	rec.Regimes, rec.TraceDigest = RegimeDigests(trace)
	rec.Channels = ChannelStats(trace)
	var buf strings.Builder
	if err := obs.WriteJSONL(&buf, trace); err != nil {
		return nil, nil, err
	}
	return trace, []byte(buf.String()), nil
}

// checkExhaustive runs the target-based path: a sharded exhaustive sweep
// merged back into one verdict, exercising the same shard artifacts a
// distributed fleet produces. No trace is captured (enumerable targets
// have no tracer); the recorded digest is the canonical empty-trace
// digest, constant across builds, so exhaustive deployments drift only on
// verdicts.
func (w *Watcher) checkExhaustive(d Deployment, rec *Record) error {
	t, err := verifysys.FindExhaustiveTarget(d.Target)
	if err != nil {
		return err
	}
	shards := make([]*separability.ShardResult, 0, w.cfg.ExhaustiveShards)
	for k := 0; k < w.cfg.ExhaustiveShards; k++ {
		sr, err := separability.CheckExhaustiveShard(t.Build(), separability.ExhaustiveOptions{
			Shard: k, Shards: w.cfg.ExhaustiveShards,
			Workers: w.cfg.Workers, Target: d.Target, Metrics: w.cfg.Metrics,
		})
		if err != nil {
			return fmt.Errorf("watch: %s: shard %d: %w", d.Name, k, err)
		}
		shards = append(shards, sr)
	}
	res, err := separability.MergeShards(shards)
	if err != nil {
		return fmt.Errorf("watch: %s: merging shards: %w", d.Name, err)
	}
	rec.Exhaustive, rec.Shards = d.Target, w.cfg.ExhaustiveShards
	fillResult(rec, res)
	rec.Regimes, rec.TraceDigest = RegimeDigests(nil)
	return nil
}

// maxRecordedViolations caps counterexamples per ledger record; the full
// set is reproducible from the recorded seed anyway.
const maxRecordedViolations = 8

func fillResult(rec *Record, res *separability.Result) {
	rec.Passed = res.Passed()
	rec.States = res.States
	for _, n := range res.Checks {
		rec.Checks += n
	}
	for i, v := range res.Violations {
		if i == maxRecordedViolations {
			break
		}
		rec.Violations = append(rec.Violations, separability.NewViolationRecord(v))
	}
}

// observe publishes one appended record to the metrics registry and the
// event log.
func (w *Watcher) observe(d Deployment, rec *Record) {
	m := w.cfg.Metrics
	m.Counter("sep_watch_deployments_total").Inc()
	m.Counter("sep_watch_records_total").Inc()
	if len(rec.Drift) > 0 {
		m.Counter("sep_watch_drift_total").Add(uint64(len(rec.Drift)))
	}
	verdict := 0.0
	if rec.Passed {
		verdict = 1.0
	}
	m.Gauge(fmt.Sprintf("sep_watch_last_verdict{deployment=%q}", d.Name)).Set(verdict)
	m.Gauge(fmt.Sprintf("sep_watch_ledger_records{deployment=%q}", d.Name)).Set(float64(rec.Seq))
	m.Gauge(fmt.Sprintf("sep_watch_ledger_age_seconds{deployment=%q}", d.Name)).
		Set(w.now().Sub(time.Unix(rec.Time, 0)).Seconds())
	for _, dr := range rec.Drift {
		if dr.Kind == DriftVerdictFlip {
			m.Counter("sep_watch_verdict_flips_total").Inc()
		}
	}
	w.logJSON(CheckOutcome{
		Time: rec.Time, Deployment: d.Name, Record: rec.ID, Seq: rec.Seq,
		Passed: rec.Passed, Expected: d.Secure, Digest: rec.TraceDigest,
		Drift: rec.Drift, Build: rec.Build.String(),
	})
}

func (w *Watcher) logJSON(v any) {
	if w.cfg.Log == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.cfg.Log.Write(append(b, '\n'))
}

// DeploymentStatus is one deployment's row in the /status report,
// reconstructed from its ledger.
type DeploymentStatus struct {
	Name   string `json:"name"`
	Secure bool   `json:"secure"`
	Target string `json:"target,omitempty"`
	// Builds is the ledger length; zero means never verified.
	Builds   int    `json:"builds"`
	LastID   string `json:"lastId,omitempty"`
	LastTime int64  `json:"lastTime,omitempty"`
	Build    string `json:"build,omitempty"`
	Passed   bool   `json:"passed"`
	// Healthy: verified at least once, verdict matches expectation, and
	// the newest record carries no drift.
	Healthy     bool    `json:"healthy"`
	TraceDigest string  `json:"traceDigest,omitempty"`
	Drift       []Drift `json:"drift,omitempty"`
	DriftTotal  int     `json:"driftTotal"`
	AgeSeconds  float64 `json:"ageSeconds,omitempty"`
}

// Status is the /status report.
type Status struct {
	Time        int64              `json:"time"`
	Cycles      int                `json:"cycles"`
	Build       BuildInfo          `json:"build"`
	Deployments []DeploymentStatus `json:"deployments"`
}

// Status reconstructs the fleet view from the ledgers on disk and
// refreshes the per-deployment age gauges.
func (w *Watcher) Status() (Status, error) {
	w.mu.Lock()
	cycles := w.cycles
	w.mu.Unlock()
	st := Status{Time: w.now().Unix(), Cycles: cycles, Build: w.cfg.Build}
	for _, d := range w.cfg.Deployments {
		ds := DeploymentStatus{Name: d.Name, Secure: d.Secure, Target: d.Target}
		led, err := OpenLedger(w.cfg.Dir, d.Name)
		if err != nil {
			return st, err
		}
		recs, err := led.Records()
		if err != nil {
			return st, fmt.Errorf("watch: %s: %w", d.Name, err)
		}
		ds.Builds = len(recs)
		for _, r := range recs {
			ds.DriftTotal += len(r.Drift)
		}
		if len(recs) > 0 {
			head := recs[len(recs)-1]
			ds.LastID, ds.LastTime = head.ID, head.Time
			ds.Build = head.Build.String()
			ds.Passed = head.Passed
			ds.TraceDigest = head.TraceDigest
			ds.Drift = head.Drift
			ds.Healthy = head.Passed == d.Secure && len(head.Drift) == 0
			ds.AgeSeconds = w.now().Sub(time.Unix(head.Time, 0)).Seconds()
			w.cfg.Metrics.Gauge(fmt.Sprintf("sep_watch_ledger_age_seconds{deployment=%q}", d.Name)).
				Set(ds.AgeSeconds)
		}
		st.Deployments = append(st.Deployments, ds)
	}
	return st, nil
}

// StatusHandler serves Status as indented JSON, for mounting beside
// /metrics via obs.ListenOptions.Handlers.
func (w *Watcher) StatusHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		st, err := w.Status()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
