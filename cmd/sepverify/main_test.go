package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/separability"
	"repro/internal/verifysys"
)

func runCLI(t *testing.T, wantExit int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	if got := run(args, &out, &errw); got != wantExit {
		t.Fatalf("sepverify %v: exit = %d, want %d; stdout:\n%s\nstderr:\n%s",
			args, got, wantExit, out.String(), errw.String())
	}
	return out.String(), errw.String()
}

var (
	verdictLine = regexp.MustCompile(`^(\S+):\s+(PASS|FAIL): (?:\d+ condition instances verified, )?(\d+) violations`)
	conditionOf = regexp.MustCompile(`^    condition (\d+) `)
)

// registeredNames is every name the verifysys registries define, in name
// order: the deployments and the exhaustive targets.
func registeredNames() []string {
	var names []string
	for _, d := range verifysys.DeploymentSpecs() {
		names = append(names, d.Name)
	}
	for _, tg := range verifysys.ExhaustiveTargets() {
		names = append(names, tg.Name)
	}
	sort.Strings(names)
	return names
}

// verdicts returns the names of out's verdict lines in order, failing the
// test on any verdict that is not "[as expected]".
func verdicts(t *testing.T, out string) []string {
	t.Helper()
	var names []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "    ") {
			continue
		}
		m := verdictLine.FindStringSubmatch(line)
		if m == nil || !strings.HasSuffix(line, "[as expected]") {
			t.Fatalf("unexpected line %q in:\n%s", line, out)
		}
		names = append(names, m[1])
	}
	return names
}

// With no flags, sepverify checks every registered deployment and
// exhaustive target once, in name order, and each reaches its registered
// verdict.
func TestSweepsEveryRegisteredSystem(t *testing.T) {
	out, _ := runCLI(t, 0)
	got, want := verdicts(t, out), registeredNames()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("verdict lines for\n  %v\nwant one per registered name, in order:\n  %v", got, want)
	}
	list, _ := runCLI(t, 0, "-list")
	if got := strings.Fields(list); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list = %v, want %v", got, want)
	}
}

// Every exhaustive target is swept and honours -max-violations: with a cap
// of one, a failing target reports at most one violation per violated
// condition.
func TestExhaustiveSweepsEveryTarget(t *testing.T) {
	const max = 1
	out, _ := runCLI(t, 0, "-max-violations", strconv.Itoa(max))

	var swept []string
	var failing string
	violations, conditions := 0, map[string]bool{}
	checkCap := func() {
		if failing != "" && violations > max*len(conditions) {
			t.Errorf("%s: %d violations over %d conditions exceeds -max-violations %d",
				failing, violations, len(conditions), max)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if m := conditionOf.FindStringSubmatch(line); m != nil {
			conditions[m[1]] = true
			continue
		}
		m := verdictLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		checkCap()
		failing, conditions = "", map[string]bool{}
		if !strings.Contains(m[1], ":") {
			continue // a kernel deployment: randomized, uncapped
		}
		swept = append(swept, m[1])
		if m[2] == "FAIL" {
			failing = m[1]
			violations, _ = strconv.Atoi(m[3])
		}
	}
	checkCap()

	targets := verifysys.ExhaustiveTargets()
	if len(swept) != len(targets) {
		t.Fatalf("got %d exhaustive verdict lines %v, want one per target (%d)", len(swept), swept, len(targets))
	}
	for i, tg := range targets {
		if swept[i] != tg.Name {
			t.Errorf("exhaustive verdict line %d is %q, want %q", i, swept[i], tg.Name)
		}
	}
}

// The canary count documented in EXPERIMENTS: a change to it means the
// sweep no longer visits the same condition instances.
func TestExhaustiveSecureCanary(t *testing.T) {
	out, _ := runCLI(t, 0, "-target", "minisue:secure")
	want := "minisue:secure: PASS: 1252032 condition instances verified, 0 violations"
	if got := strings.Join(strings.Fields(out)[:8], " "); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// Insecure deployments are caught, which is their registered verdict: the
// run exits 0.
func TestInsecureDeploymentsFailAsExpected(t *testing.T) {
	for _, name := range []string{"honest-uncut", "leak-SchedulerSnoop"} {
		out, _ := runCLI(t, 0, "-target", name)
		first := strings.SplitN(out, "\n", 2)[0]
		if !strings.HasPrefix(first, name+":") || !strings.Contains(first, " FAIL: ") ||
			!strings.HasSuffix(first, "[as expected]") {
			t.Errorf("-target %s: verdict line %q, want a FAIL [as expected]", name, first)
		}
	}
}

// A verdict that misses the registered one is reported and exits 1:
// without the scheduling extension, the scheduler snoop goes unnoticed.
func TestUnexpectedVerdictExits1(t *testing.T) {
	out, _ := runCLI(t, 1, "-target", "leak-SchedulerSnoop", "-sched=false")
	if !strings.HasPrefix(out, "leak-SchedulerSnoop:") || !strings.Contains(out, " PASS: ") ||
		!strings.HasSuffix(strings.TrimSpace(out), "[UNEXPECTED]") {
		t.Errorf("got %q, want a PASS [UNEXPECTED] line", out)
	}
}

// The randomized check's output does not depend on the worker count.
func TestWorkerCountInvariance(t *testing.T) {
	one, _ := runCLI(t, 0, "-target", "leak-RegisterLeak", "-workers", "1")
	two, _ := runCLI(t, 0, "-target", "leak-RegisterLeak", "-workers", "2")
	if one != two {
		t.Errorf("-workers 1 and -workers 2 differ:\n%s\nvs\n%s", one, two)
	}
}

// Witnesses of a deployment land under a subdirectory named after it.
func TestWitnessDirPerDeployment(t *testing.T) {
	dir := t.TempDir()
	out, _ := runCLI(t, 0, "-target", "leak-RegisterLeak", "-witness-dir", dir)
	sub := filepath.Join(dir, "leak-RegisterLeak")
	if !strings.Contains(out, "witnesses: ") || !strings.Contains(out, "-> "+sub+" ") {
		t.Errorf("no witness line naming %s in:\n%s", sub, out)
	}
	if ents, err := os.ReadDir(sub); err != nil || len(ents) == 0 {
		t.Errorf("witness store %s: %d entries, err %v", sub, len(ents), err)
	}
}

// Each shard's -checkpoint file is its result: -merge over the files of a
// 2-way cut prints the direct run's verdict, and a partial file (a shard
// stopped mid-sweep) is refused with exit 2, naming its frontier.
func TestMergeShardFiles(t *testing.T) {
	const target = "toy:direct-write"
	dir := t.TempDir()
	direct, _ := runCLI(t, 0, "-target", target)
	paths := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	for k, p := range paths {
		runCLI(t, 0, "-target", target, "-shard", strconv.Itoa(k)+"/2", "-checkpoint", p)
	}
	merged, _ := runCLI(t, 0, append([]string{"-merge"}, paths...)...)
	if merged != direct {
		t.Errorf("merged shard files print\n%s\nthe direct run\n%s", merged, direct)
	}

	tg, err := verifysys.FindExhaustiveTarget(target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := separability.CheckExhaustiveShard(tg.Build(), separability.ExhaustiveOptions{
		Target: target, MaxViolations: 8, Shard: 0, Shards: 2, Workers: 1,
		Checkpoint: paths[0] + ".partial", AbortAfterChunks: 2,
	}); !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("abort: got %v, want ErrAborted", err)
	}
	_, stderr := runCLI(t, 2, "-merge", paths[0]+".partial", paths[1])
	if !strings.Contains(stderr, "incomplete: frontier 2 ") {
		t.Errorf("merge of a partial shard: stderr %q does not name its frontier", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-target", "nope"}, []string{`unknown -target "nope"`, "honest-uncut", "leak-RegisterLeak", "minisue:secure", "toy:secure"}},
		{[]string{"-shard", "0/2"}, []string{"sepverify: -shard and -checkpoint require an exhaustive -target"}},
		{[]string{"-target", "honest", "-shard", "0/2"}, []string{"require an exhaustive -target"}},
		{[]string{"-target", "minisue:secure", "-witness-dir", "w"}, []string{"-witness-dir requires a kernel deployment"}},
		{[]string{"-target", "toy:secure", "-shard", "2/2"}, []string{`bad -shard "2/2" (want 0 <= k < n)`}},
		{[]string{"-merge"}, []string{"sepverify: -merge needs shard files as arguments"}},
		{[]string{"-target", "toy:secure", "-shard-out", "s.json"}, []string{"flag provided but not defined: -shard-out"}},
		{[]string{"-target", "honest", "-trials", "-1"}, []string{"-trials and -steps must be at least 1"}},
		{[]string{"-target", "honest", "-trials", "0"}, []string{"-trials and -steps must be at least 1"}},
		{[]string{"-target", "honest", "-steps", "-5"}, []string{"-trials and -steps must be at least 1"}},
		{[]string{"-target", "honest", "-steps", "0"}, []string{"-trials and -steps must be at least 1"}},
	} {
		_, stderr := runCLI(t, 2, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("sepverify %v: stderr %q does not mention %q", tc.args, stderr, want)
			}
		}
	}
}
