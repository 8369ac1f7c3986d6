package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs the shortest run of every workload, untraced and traced,
// and holds BENCHMARK.json and the code to the same workloads and metrics.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, defined []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sameNames(t, "workloads", declared, defined)
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, trace := range []bool{false, true} {
				out := filepath.Join(dir, "out.json")
				f, err := os.Create(out)
				if err != nil {
					t.Fatal(err)
				}
				_, err = run(runConfig{workload: w.name, seed: 3, seconds: 1, trace: trace,
					traceOut: filepath.Join(dir, "spans.json")}, f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				ro, err := readRunOutput(out)
				if err != nil {
					t.Fatal(err)
				}
				res := ro.res
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%t: correct=%t failed=%d of %d", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := e2e
				if trace {
					want = layers
				}
				var got, wantNames []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if u, ok := want[name]; ok && u != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, u)
					}
				}
				for name := range want {
					wantNames = append(wantNames, name)
				}
				sameNames(t, "metrics", wantNames, got)
				if !trace {
					continue
				}
				if w.name == "watch_cycles" {
					if c := res.Metrics["watch.timed.share"].Value; c < 0.9 {
						t.Errorf("timed watch calls cover %.3f of the deployment wall, want >= 0.9", c)
					}
				} else if sum := layerShareSum(res.Metrics); math.Abs(sum-1) > 0.05 {
					t.Errorf("layer shares sum to %.4f of the request wall, want 1 +- 0.05", sum)
				}
			}
		})
	}
}

// sameNames fails unless the two name lists hold the same set.
func sameNames(t *testing.T, what string, want, got []string) {
	t.Helper()
	missing, extra := setDiff(want, got), setDiff(got, want)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: declared but not produced %v; produced but not declared %v", what, missing, extra)
	}
}

func setDiff(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// layerShareSum adds up every share that partitions a traced request's
// wall: the model layers' busy shares, the checker's self share and the
// system builds.
func layerShareSum(m map[string]metric) float64 {
	sum := m["separability.self.share"].Value + m["verifysys.from_spec.share"].Value
	for name, v := range m {
		if strings.HasSuffix(name, ".share") && (strings.HasPrefix(name, "kernel.") ||
			strings.HasPrefix(name, "minisue.")) {
			sum += v.Value
		}
	}
	return sum
}
