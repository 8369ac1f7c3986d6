package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runOutput is one run's captured standard output.
type runOutput struct {
	info runInfo
	res  result
}

// readRunOutput parses the info line and the final result line of a run.
func readRunOutput(path string) (*runOutput, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ro runOutput
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head map[string]runInfo
		if json.Unmarshal(line, &head) == nil {
			if info, ok := head["run"]; ok {
				ro.info = info
			}
		}
		last = line
	}
	if ro.info.Workload == "" || last == nil {
		return nil, fmt.Errorf("%s: not the output of a benchmark run", path)
	}
	if err := json.Unmarshal(last, &ro.res); err != nil {
		return nil, fmt.Errorf("%s: last line: %w", path, err)
	}
	return &ro, nil
}

// quartiles returns the quartiles of vs the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// runCompare prints, per (workload, metric), each side's median and
// quartiles. An end-to-end median of B worse than A's by more than the
// metric's bound is a regression; a side whose spread exceeds the bound
// leaves the metric unresolved. It reports false if any metric regressed
// or is unresolved, or any run failed.
func runCompare(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bfPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			return false, fmt.Errorf("more than one -- separator")
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		return false, fmt.Errorf("usage: compare [-benchmark file] A.json... -- B.json...")
	}
	bf, err := readBenchmarkFile(*bfPath)
	if err != nil {
		return false, err
	}

	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	ok := true
	for s, paths := range sides {
		for _, p := range paths {
			ro, err := readRunOutput(p)
			if err != nil {
				return false, err
			}
			if !ro.res.Correct || ro.res.Failed > 0 {
				fmt.Fprintf(out, "%s: %d of %d requests failed\n", p, ro.res.Failed, ro.res.Attempted)
				ok = false
			}
			for name, m := range ro.res.Metrics {
				k := key{ro.info.Workload, name}
				values[s][k] = append(values[s][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, k := range keys {
		a, b := values[0][k], values[1][k]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d runs\t%d runs\t\t\tmissing on one side\n",
				k.workload, k.metric, units[k], len(a), len(b))
			ok = false
			continue
		}
		a1, a2, a3 := quartiles(a)
		b1, b2, b3 := quartiles(b)
		change := 0.0
		if a2 != 0 {
			change = b2/a2 - 1
		}
		verdict, bound := "", ""
		for _, e := range bf.EndToEnd {
			if e.Name != k.metric {
				continue
			}
			bound = fmt.Sprintf("%.0f%%", e.Bound*100)
			worse := change
			if e.Better == "higher" {
				worse = -change
			}
			switch {
			case worse > e.Bound:
				verdict = "REGRESSED"
			case spread(a1, a2, a3) > e.Bound || spread(b1, b2, b3) > e.Bound:
				verdict = "UNRESOLVED (spread above bound)"
			default:
				verdict = "ok"
			}
			if verdict != "ok" {
				ok = false
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\t%s\n",
			k.workload, k.metric, units[k], a2, a1, a3, b2, b1, b3, change*100, bound, verdict)
	}
	return ok, tw.Flush()
}
