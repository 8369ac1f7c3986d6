package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastFlags keeps CLI tests quick: the same reduced parameters the watch
// package tests validated against every planted leak.
func fastFlags(dir string) []string {
	return []string{"-dir", dir, "-seed", "7", "-trials", "3", "-steps", "50",
		"-tracesteps", "120", "-workers", "1", "-build", "t1"}
}

func runCLI(t *testing.T, wantExit int, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	got := run(args, &out, &errw)
	if got != wantExit {
		t.Fatalf("exit = %d, want %d\nargs: %v\nstdout:\n%s\nstderr:\n%s",
			got, wantExit, args, out.String(), errw.String())
	}
	return out.String()
}

// The end-to-end drift story through the CLI: verify, re-verify
// (idempotent), silently flip the spec (drift caught and classified),
// then read it all back via history and diff.
func TestCheckHistoryDiffFlow(t *testing.T) {
	dir := t.TempDir()

	out := runCLI(t, 0, append([]string{"check"}, append(fastFlags(dir), "honest")...)...)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "seq=1") {
		t.Fatalf("first check:\n%s", out)
	}
	digestRe := regexp.MustCompile(`digest=([0-9a-f]{16})`)
	m := digestRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest in check output:\n%s", out)
	}
	digest1 := m[1]

	// Idempotence: same deployment, new build record, identical digest, no
	// drift, exit 0.
	out = runCLI(t, 0, append([]string{"check"}, append(fastFlags(dir), "honest")...)...)
	if !strings.Contains(out, "seq=2") || !strings.Contains(out, "drift=0") {
		t.Fatalf("re-check:\n%s", out)
	}
	if m := digestRe.FindStringSubmatch(out); m == nil || m[1] != digest1 {
		t.Fatalf("unchanged deployment changed digest:\n%s", out)
	}

	// The silent spec change: drift classified, exit 2.
	out = runCLI(t, 2, append([]string{"check", "-override-leak", "SharedScratch"},
		append(fastFlags(dir), "honest")...)...)
	if !strings.Contains(out, "FAIL") {
		t.Fatalf("planted leak passed:\n%s", out)
	}
	if c := strings.Count(out, "drift verdict-flip"); c != 1 {
		t.Fatalf("verdict flips = %d, want 1:\n%s", c, out)
	}
	if c := strings.Count(out, "drift digest-drift"); c != 1 {
		t.Fatalf("digest drifts = %d, want 1:\n%s", c, out)
	}
	if !strings.Contains(out, "diverges at event") {
		t.Fatalf("first divergent event not located:\n%s", out)
	}

	out = runCLI(t, 0, "history", "-dir", dir)
	if !strings.Contains(out, "honest: 3 builds") {
		t.Fatalf("history:\n%s", out)
	}
	if c := strings.Count(out, "drift verdict-flip"); c != 1 {
		t.Fatalf("history verdict flips = %d, want 1:\n%s", c, out)
	}

	// diff of the two newest records re-derives the drift; exit 1.
	out = runCLI(t, 1, "diff", "-dir", dir, "-deployment", "honest")
	if !strings.Contains(out, "drift verdict-flip") || !strings.Contains(out, "drift digest-drift") {
		t.Fatalf("diff:\n%s", out)
	}
	// The first two builds are identical: no drift, exit 0.
	out = runCLI(t, 0, "diff", "-dir", dir, "-deployment", "honest", "-a", "1", "-b", "2")
	if !strings.Contains(out, "no drift") {
		t.Fatalf("identical-pair diff:\n%s", out)
	}

	// JSON report round-trips.
	out = runCLI(t, 1, "diff", "-dir", dir, "-deployment", "honest", "-format", "json")
	var report struct {
		Deployment string `json:"deployment"`
		A, B       string
		Drift      []struct {
			Kind      string `json:"kind"`
			Regime    int    `json:"regime"`
			DivergeAt int    `json:"divergeAt"`
		} `json:"drift"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("diff -format json: %v\n%s", err, out)
	}
	if report.Deployment != "honest" || len(report.Drift) < 2 {
		t.Fatalf("json report: %+v", report)
	}
	// Exactly one flip and one digest drift; the leak's probe also stops
	// using its channel, which classifies as a channel regression too.
	kinds := map[string]int{}
	for _, d := range report.Drift {
		kinds[d.Kind]++
	}
	if kinds["verdict-flip"] != 1 || kinds["digest-drift"] != 1 {
		t.Fatalf("json drift kinds: %v", kinds)
	}
}

func TestCheckWritesEventLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	runCLI(t, 0, append([]string{"check", "-log", logPath},
		append(fastFlags(dir), "honest")...)...)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var co struct {
		Deployment string `json:"deployment"`
		Passed     bool   `json:"passed"`
		Build      string `json:"build"`
	}
	line := strings.SplitN(strings.TrimSpace(string(b)), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &co); err != nil {
		t.Fatalf("event log line: %v\n%s", err, line)
	}
	if co.Deployment != "honest" || !co.Passed || !strings.Contains(co.Build, "t1") {
		t.Fatalf("event log content: %+v", co)
	}
}

func TestServeCyclesAndEndpoints(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var buf bytes.Buffer
	out := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	done := make(chan int, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-cycles", "2",
		"-interval", "100ms", "-deployments", "honest,toy-secure"}, fastFlags(dir)...)
	go func() { done <- run(args, out, io.Discard) }()

	// Wait for the server line, then hit /status and /metrics while cycles
	// run.
	addrRe := regexp.MustCompile(`serving http://([^/]+)/status`)
	var addr string
	for i := 0; i < 100; i++ {
		mu.Lock()
		m := addrRe.FindStringSubmatch(buf.String())
		mu.Unlock()
		if m != nil {
			addr = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("serve never announced its address")
	}
	deadline := time.Now().Add(5 * time.Second)
	var status struct {
		Deployments []struct {
			Name    string `json:"name"`
			Builds  int    `json:"builds"`
			Healthy bool   `json:"healthy"`
		} `json:"deployments"`
	}
	for {
		resp, err := http.Get("http://" + addr + "/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&status)
			resp.Body.Close()
		}
		// Cycles check deployments in order, so the last one having a
		// build means every one has.
		if err == nil && len(status.Deployments) == 2 && status.Deployments[1].Builds > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/status never became ready: %v %+v", err, status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, ds := range status.Deployments {
		if !ds.Healthy {
			t.Errorf("deployment %s unhealthy in /status", ds.Name)
		}
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		"sep_watch_records_total",
		`sep_watch_last_verdict{deployment="honest"} 1`,
		`sep_watch_ledger_records{deployment="toy-secure"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics misses %q", want)
		}
	}

	if code := <-done; code != 0 {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("serve exited %d:\n%s", code, buf.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "cycle 2:") {
		t.Fatalf("serve did not run 2 cycles:\n%s", buf.String())
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, 2, "bogus")
	runCLI(t, 2)
	runCLI(t, 0, "help")
	runCLI(t, 2, "check", "-dir", dir, "nosuch-deployment")
	runCLI(t, 2, "check", "-dir", dir, "-deployments", "nosuch")
	runCLI(t, 2, "diff", "-dir", dir)
	runCLI(t, 2, "diff", "-dir", dir, "-deployment", "honest") // no ledger yet
	runCLI(t, 2, "diff", "-dir", dir, "-deployment", "honest", "-format", "bogus")
	runCLI(t, 2, "history", "-dir", filepath.Join(dir, "nosuch"))
	// Exhaustive deployments have no spec to override.
	runCLI(t, 2, append([]string{"check", "-override-leak", "SharedScratch"},
		append(fastFlags(dir), "toy-secure")...)...)
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
