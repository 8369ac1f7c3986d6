// Command bench is the repository benchmark: three closed-loop workloads
// driven through the verification stack's public entry points, reporting
// end-to-end metrics, or per-layer metrics from a traced run.
//
//	go run . -workload randomized_registry -seed 1 -seconds 30 -trace 0
//	go run . compare A.json... -- B.json...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. End-to-end times are scaled to
// a reference host speed (hostspeed.go); the line before it records the
// unscaled values. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result; compare reads the
// workload name from it.
type runInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Requests   int    `json:"requests"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	// Untraced runs only: the median probe time, the slowdown the times
	// were divided by, and the end-to-end values before scaling.
	ProbeMS  float64            `json:"probe_ms,omitempty"`
	Slowdown float64            `json:"slowdown,omitempty"`
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		ok, err := runCompare(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "run length; a fixed-length workload's request count scales with it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "bench-trace.json", "where a traced run writes its spans")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its info line and result.
func run(cfg runConfig, out io.Writer) (*result, error) {
	def, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "sepbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	info := runInfo{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	var res *result
	if cfg.trace {
		res, err = runTraced(def, cfg, tmp)
	} else {
		res, err = runTimed(def, cfg, tmp, &info)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	info.Requests = res.Attempted
	for _, v := range []any{map[string]runInfo{"run": info}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Fprintf(out, "%s\n", b); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// another reports whether request i is issued. A run stops only between
// rounds: after n requests, or, when n is 0, once limit has passed since
// start, with at least one round issued.
func another(def workloadDef, i, n int, start time.Time, limit time.Duration) bool {
	switch {
	case i%def.perRound != 0:
		return true
	case n > 0:
		return i < n
	default:
		return i == 0 || time.Since(start) < limit
	}
}

// runTimed measures the end-to-end metrics: set up setupRuns times, then
// issue requests in a closed loop with two checker workers, probing the
// host's speed between set-ups and between requests. It records the
// probe and the unscaled values in info.
func runTimed(def workloadDef, cfg runConfig, tmp string, info *runInfo) (*result, error) {
	w, err := def.make(cfg.seed, 2)
	if err != nil {
		return nil, err
	}
	probe := newHostProbe()
	setups := make([]float64, setupRuns)
	for r := range setups {
		start := time.Now()
		if err := w.setUp(filepath.Join(tmp, fmt.Sprintf("run-%d", r))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[r] = time.Since(start).Seconds()
		probe.measure()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var lat []float64
	busy := 0.0 // seconds inside requests
	checks, failed := 0, 0
	n, limit := def.fixedRequests(cfg.seconds), time.Duration(cfg.seconds)*time.Second
	for i, start := 0, time.Now(); another(def, i, n, start, limit); i++ {
		t := time.Now()
		o := w.do(i, nil)
		d := time.Since(t)
		lat = append(lat, float64(d)/1e6)
		busy += d.Seconds()
		checks += o.checks
		if !o.ok {
			failed++
			fmt.Fprintf(os.Stderr, "request %d failed: %s\n", i, o.verdict)
		}
		probe.due()
	}
	runtime.ReadMemStats(&after)

	sort.Float64s(lat)
	unscaled := map[string]float64{
		"latency_p50_ms": percentile(lat, 0.5),
		"latency_p90_ms": percentile(lat, 0.9),
		"checks_per_s":   float64(checks) / busy,
		"setup_s":        median(setups),
	}
	s := probe.slowdown()
	info.ProbeMS, info.Slowdown, info.Unscaled = median(probe.ms), s, unscaled
	return &result{
		Correct: failed == 0, Attempted: len(lat), Failed: failed,
		Metrics: map[string]metric{
			"latency_p50_ms":       {unscaled["latency_p50_ms"] / s, "ms"},
			"latency_p90_ms":       {unscaled["latency_p90_ms"] / s, "ms"},
			"checks_per_s":         {unscaled["checks_per_s"] * s, "1/s"},
			"alloc_mb_per_request": {float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(lat)), "MB"},
			"setup_s":              {unscaled["setup_s"] / s, "s"},
		},
	}, nil
}

// runTraced replays whole rounds of the run's requests for a quarter of
// --seconds with one checker worker, alternating an untraced and a traced
// issue of each request, and reports the per-layer metrics unscaled. Each
// side has its own set-up, so the watch workload's two ledgers grow in
// step.
func runTraced(def workloadDef, cfg runConfig, tmp string) (*result, error) {
	plain, err := def.make(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	traced, err := def.make(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	if err := plain.setUp(filepath.Join(tmp, "untraced")); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := traced.setUp(filepath.Join(tmp, "traced")); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	tr := newTracer()
	var lat []float64
	failed := 0
	runtime.GC()
	limit := time.Duration(cfg.seconds) * time.Second / 4
	for i, start := 0, time.Now(); another(def, i, 0, start, limit); i++ {
		t := time.Now()
		u := plain.do(i, nil)
		lat = append(lat, float64(time.Since(t))/1e6)
		o := traced.do(i, tr)
		if !u.ok || !o.ok || u.verdict != o.verdict {
			failed++
			fmt.Fprintf(os.Stderr, "request %d: untraced %q, traced %q\n", i, u.verdict, o.verdict)
		}
	}
	if err := tr.writeSpans(cfg.traceOut, def.name, cfg.seed); err != nil {
		return nil, err
	}
	walls := append([]float64(nil), tr.walls...)
	sort.Float64s(walls)
	sort.Float64s(lat)
	overhead := percentile(walls, 0.5)/percentile(lat, 0.5) - 1
	return &result{Correct: failed == 0, Attempted: len(lat), Failed: failed,
		Metrics: layerMetrics(tr, overhead)}, nil
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
