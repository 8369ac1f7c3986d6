package watch

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/verifysys"
)

// testConfig is tuned for speed: the probe above kernel_verify_test's
// parameters showed Trials 3 x 50 steps catches every planted leak and
// passes the honest cut kernel.
func testConfig(dir string, deps ...Deployment) Config {
	return Config{
		Dir: dir, Deployments: deps,
		Seed: 7, Trials: 3, StepsPerTrial: 50, TraceSteps: 120,
		Workers: 1,
		Build:   BuildInfo{GoVersion: "go1.test", Label: "b1"},
	}
}

// fixClock pins the watcher's clock to a deterministic step sequence.
func fixClock(w *Watcher) {
	base := time.Unix(1700000000, 0)
	n := 0
	w.now = func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

func mustFind(t *testing.T, name string) Deployment {
	t.Helper()
	d, ok := FindDeployment(name)
	if !ok {
		t.Fatalf("deployment %q not registered", name)
	}
	return d
}

// Acceptance criterion: re-running an unchanged deployment appends a
// record with the identical trace digest and no drift entry.
func TestWatcherIdempotentReverification(t *testing.T) {
	dir := t.TempDir()
	honest := mustFind(t, "honest")
	w := New(testConfig(dir, honest))
	fixClock(w)

	rec1, err := w.CheckDeployment(honest)
	if err != nil {
		t.Fatal(err)
	}
	if !rec1.Passed {
		t.Fatalf("honest deployment failed verification: %+v", rec1.Violations)
	}
	if len(rec1.Drift) != 0 {
		t.Fatalf("first build has no baseline, classified drift: %v", rec1.Drift)
	}
	if rec1.TraceEvents == 0 || len(rec1.Regimes) == 0 || len(rec1.Channels) == 0 {
		t.Fatalf("trace capture empty: events=%d regimes=%d channels=%d",
			rec1.TraceEvents, len(rec1.Regimes), len(rec1.Channels))
	}

	rec2, err := w.CheckDeployment(honest)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TraceDigest != rec1.TraceDigest {
		t.Fatalf("unchanged deployment drifted: digest %s -> %s", rec1.TraceDigest, rec2.TraceDigest)
	}
	if rec2.TraceBlob != rec1.TraceBlob {
		t.Fatalf("unchanged deployment produced a new blob: %s -> %s", rec1.TraceBlob, rec2.TraceBlob)
	}
	if len(rec2.Drift) != 0 {
		t.Fatalf("idempotent re-verification classified drift: %v", rec2.Drift)
	}
	if rec2.Seq != 2 || rec2.PrevID != rec1.ID {
		t.Fatalf("record does not chain: seq=%d prev=%q", rec2.Seq, rec2.PrevID)
	}

	// Identical traces share one content-addressed blob.
	led, _ := OpenLedger(dir, "honest")
	blobs, err := os.ReadDir(filepath.Join(led.Dir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("idempotent cycles stored %d blobs", len(blobs))
	}
}

// Acceptance criterion: a deployment whose spec silently changes (a leak
// planted between builds) drifts against its own ledger — one verdict
// flip, one digest drift located down to the first divergent event.
func TestWatcherDetectsSilentSpecChange(t *testing.T) {
	dir := t.TempDir()
	honest := mustFind(t, "honest")
	w := New(testConfig(dir, honest))
	fixClock(w)

	if _, err := w.CheckDeployment(honest); err != nil {
		t.Fatal(err)
	}

	// The silent change: same deployment name, leak-flipped spec — what
	// `sepwatch check -override-leak SharedScratch honest` simulates.
	drifted := honest
	drifted.Spec = verifysys.SpecFor("SharedScratch", true, false)
	rec, err := w.CheckDeployment(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Passed {
		t.Fatal("planted leak not caught on re-verification")
	}
	if len(rec.Violations) == 0 {
		t.Fatal("failing record carries no counterexamples")
	}

	var flips, digests []Drift
	for _, d := range rec.Drift {
		switch d.Kind {
		case DriftVerdictFlip:
			flips = append(flips, d)
		case DriftDigest:
			digests = append(digests, d)
		}
	}
	if len(flips) != 1 {
		t.Fatalf("verdict flips = %v, want exactly one", flips)
	}
	if !strings.Contains(flips[0].Detail, "PASS -> FAIL") {
		t.Errorf("flip direction wrong: %s", flips[0].Detail)
	}
	if len(digests) != 1 {
		t.Fatalf("digest drifts = %v, want exactly one", digests)
	}
	dd := digests[0]
	if dd.Regime < 0 || dd.DivergeAt < 0 {
		t.Fatalf("digest drift not located to a first divergent event: %+v", dd)
	}
	if !strings.Contains(dd.Detail, "diverges at event") ||
		!strings.Contains(dd.Detail, "prev ") || !strings.Contains(dd.Detail, "now ") {
		t.Errorf("first divergent event pair not rendered: %s", dd.Detail)
	}

	// The ledger, re-read cold, tells the same story.
	led, _ := OpenLedger(dir, "honest")
	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[1].Drift) != len(rec.Drift) {
		t.Fatalf("ledger does not persist the drift: %d records", len(recs))
	}
	if recs[0].Spec.Leak != "" || recs[1].Spec.Leak != "SharedScratch" {
		t.Fatalf("specs not recorded: %q, %q", recs[0].Spec.Leak, recs[1].Spec.Leak)
	}
}

// Target-based deployments run the sharded exhaustive path: verdict from
// MergeShards, constant empty-trace digest, so only verdicts can drift.
func TestWatcherExhaustiveDeployments(t *testing.T) {
	dir := t.TempDir()
	secure := mustFind(t, "toy-secure")
	var leaky Deployment
	for _, d := range ExhaustiveDeployments() {
		if strings.HasPrefix(d.Name, "toy-") && !d.Secure {
			leaky = d
			break
		}
	}
	if leaky.Name == "" {
		t.Fatal("no insecure toy target registered")
	}
	cfg := testConfig(dir, secure, leaky)
	cfg.ExhaustiveShards = 2
	w := New(cfg)
	fixClock(w)

	rec, err := w.CheckDeployment(secure)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed || rec.Exhaustive != "toy:secure" || rec.Shards != 2 {
		t.Fatalf("secure toy sweep: passed=%v exhaustive=%q shards=%d",
			rec.Passed, rec.Exhaustive, rec.Shards)
	}
	if rec.TraceBlob != "" || rec.TraceEvents != 0 {
		t.Fatalf("exhaustive deployment captured a trace: %+v", rec)
	}
	rec2, err := w.CheckDeployment(secure)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Drift) != 0 || rec2.TraceDigest != rec.TraceDigest {
		t.Fatalf("idempotent exhaustive re-verification drifted: %v", rec2.Drift)
	}

	lrec, err := w.CheckDeployment(leaky)
	if err != nil {
		t.Fatal(err)
	}
	if lrec.Passed {
		t.Fatalf("insecure target %s passed its exhaustive sweep", leaky.Target)
	}
}

func TestRunCycleStatusMetricsAndLog(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	cfg := testConfig(dir, mustFind(t, "honest"), mustFind(t, "leak-RegisterLeak"))
	cfg.Metrics = obs.NewRegistry()
	cfg.Log = &log
	w := New(cfg)
	fixClock(w)

	res := w.RunCycle()
	if res.Cycle != 1 || res.Deployments != 2 || res.Errors != 0 {
		t.Fatalf("cycle result: %+v", res)
	}
	if res.Drift != 0 || res.VerdictFlips != 0 {
		t.Fatalf("first cycle has no baseline to drift from: %+v", res)
	}

	st, err := w.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 1 || len(st.Deployments) != 2 {
		t.Fatalf("status: %+v", st)
	}
	for _, ds := range st.Deployments {
		if ds.Builds != 1 {
			t.Errorf("%s builds = %d", ds.Name, ds.Builds)
		}
		// honest passes, the leak deployment fails — both as expected, so
		// both healthy.
		if !ds.Healthy {
			t.Errorf("%s unhealthy: passed=%v secure=%v drift=%v", ds.Name, ds.Passed, ds.Secure, ds.Drift)
		}
		if ds.Name == "honest" && !ds.Passed {
			t.Error("honest deployment failed")
		}
		if ds.Name == "leak-RegisterLeak" && ds.Passed {
			t.Error("leak deployment passed")
		}
	}

	m := cfg.Metrics
	if got := m.CounterValue("sep_watch_cycles_total"); got != 1 {
		t.Errorf("cycles counter = %d", got)
	}
	if got := m.CounterValue("sep_watch_records_total"); got != 2 {
		t.Errorf("records counter = %d", got)
	}
	if got := m.GaugeValue(`sep_watch_last_verdict{deployment="honest"}`); got != 1 {
		t.Errorf("honest verdict gauge = %g", got)
	}
	if got := m.GaugeValue(`sep_watch_last_verdict{deployment="leak-RegisterLeak"}`); got != 0 {
		t.Errorf("leak verdict gauge = %g", got)
	}
	if got := m.GaugeValue(`sep_watch_ledger_records{deployment="honest"}`); got != 1 {
		t.Errorf("ledger records gauge = %g", got)
	}

	// The JSONL event log: one line per check plus the cycle line, each
	// valid JSON.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("event log has %d lines, want 3:\n%s", len(lines), log.String())
	}
	deployments := map[string]bool{}
	for _, ln := range lines[:2] {
		var co CheckOutcome
		if err := json.Unmarshal([]byte(ln), &co); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, ln)
		}
		deployments[co.Deployment] = true
		if co.Record == "" || co.Seq != 1 {
			t.Errorf("check outcome incomplete: %+v", co)
		}
	}
	if !deployments["honest"] || !deployments["leak-RegisterLeak"] {
		t.Errorf("log misses deployments: %v", deployments)
	}
	var cy CycleResult
	if err := json.Unmarshal([]byte(lines[2]), &cy); err != nil || cy.Event != "cycle" {
		t.Fatalf("cycle log line: %v\n%s", err, lines[2])
	}

	// A second cycle over unchanged deployments stays drift-free.
	res2 := w.RunCycle()
	if res2.Drift != 0 || res2.VerdictFlips != 0 || res2.Errors != 0 {
		t.Fatalf("unchanged registry drifted on cycle 2: %+v", res2)
	}
}

func TestStatusHandlerServesJSON(t *testing.T) {
	dir := t.TempDir()
	w := New(testConfig(dir, mustFind(t, "honest")))
	fixClock(w)
	if _, err := w.CheckDeployment(w.cfg.Deployments[0]); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	w.StatusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/status", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if len(st.Deployments) != 1 || st.Deployments[0].Name != "honest" || !st.Deployments[0].Healthy {
		t.Fatalf("/status content: %+v", st)
	}
}

func TestRegistries(t *testing.T) {
	specs := Deployments()
	if len(specs) != len(verifysys.DeploymentSpecs()) {
		t.Fatalf("spec registry size %d", len(specs))
	}
	exh := ExhaustiveDeployments()
	if len(exh) != len(verifysys.ExhaustiveTargets()) {
		t.Fatalf("exhaustive registry size %d", len(exh))
	}
	for _, d := range append(specs, exh...) {
		if strings.ContainsAny(d.Name, ":/ ") {
			t.Errorf("deployment name %q not filesystem-safe", d.Name)
		}
		if _, ok := FindDeployment(d.Name); !ok {
			t.Errorf("FindDeployment(%q) missing", d.Name)
		}
	}
	if _, ok := FindDeployment("nope"); ok {
		t.Error("FindDeployment(nope) found something")
	}
}

// A negative count is refused before the ledger is touched. The watcher
// used to seal a PASS over no work for a negative Trials, StepsPerTrial or
// TraceSteps, and to panic sizing the shard set for a negative
// ExhaustiveShards.
func TestNegativeConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		field      string
		deployment string
		set        func(c *Config)
	}{
		{"Trials", "honest", func(c *Config) { c.Trials = -1 }},
		{"StepsPerTrial", "honest", func(c *Config) { c.StepsPerTrial = -1 }},
		{"TraceSteps", "honest", func(c *Config) { c.TraceSteps = -1 }},
		{"ExhaustiveShards", "toy-secure", func(c *Config) { c.ExhaustiveShards = -1 }},
	} {
		dir := t.TempDir()
		d := mustFind(t, tc.deployment)
		cfg := testConfig(dir, d)
		tc.set(&cfg)
		rec, err := New(cfg).CheckDeployment(d)
		if err == nil || !strings.Contains(err.Error(), " "+tc.field+"=-1") {
			t.Errorf("%s=-1: record %v, error %v; want an error naming %s=-1", tc.field, rec, err, tc.field)
		}
		if _, err := os.Stat(filepath.Join(dir, d.Name)); !os.IsNotExist(err) {
			t.Errorf("%s=-1: ledger directory exists (stat: %v)", tc.field, err)
		}
	}
}
