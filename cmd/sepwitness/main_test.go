package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// captureDir populates a witness store from a RegisterLeak run and returns
// its path.
func captureDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "w")
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := separability.Options{Trials: 10, StepsPerTrial: 100, Seed: 99}
	res := separability.CheckRandomized(sys, opt)
	if res.Passed() {
		t.Fatal("leak not caught; no witnesses to test the CLI on")
	}
	if _, err := witness.Capture(sys, opt, res, witness.Options{Dir: dir, System: spec}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIListShowReplayDiff(t *testing.T) {
	dir := captureDir(t)

	code, out, _ := run(t, "-dir", dir, "list")
	if code != 0 || !strings.Contains(out, "condition") {
		t.Fatalf("list: code=%d out=%q", code, out)
	}
	id := strings.Fields(out)[0]

	code, out, _ = run(t, "-dir", dir, "show", id)
	if code != 0 || !strings.Contains(out, `"checkSeed"`) {
		t.Fatalf("show: code=%d out=%q", code, out)
	}

	code, out, _ = run(t, "-dir", dir, "-require-shrink", "replay")
	if code != 0 {
		t.Fatalf("replay: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "ok   "+id) {
		t.Errorf("replay output missing witness %s:\n%s", id, out)
	}

	// A store diffed against itself agrees; against an empty store it
	// differs with exit 1.
	if code, _, _ = run(t, "-dir", dir, "diff", dir); code != 0 {
		t.Errorf("self-diff: code=%d", code)
	}
	if code, _, _ = run(t, "-dir", dir, "diff", t.TempDir()); code != 1 {
		t.Errorf("diff vs empty store: code=%d, want 1", code)
	}
}

func TestCLIErrors(t *testing.T) {
	if code, _, _ := run(t); code != 2 {
		t.Errorf("no command: code=%d, want 2", code)
	}
	if code, _, _ := run(t, "-dir", t.TempDir(), "frobnicate"); code != 2 {
		t.Errorf("unknown command: code=%d, want 2", code)
	}
	if code, _, _ := run(t, "-dir", t.TempDir(), "replay", "deadbeef"); code != 2 {
		t.Errorf("unknown ID: code=%d, want 2", code)
	}
	// An empty store replays nothing — that is a failure, not a silent pass.
	if code, _, _ := run(t, "-dir", t.TempDir(), "replay"); code != 1 {
		t.Errorf("empty replay: code=%d, want 1", code)
	}
}
