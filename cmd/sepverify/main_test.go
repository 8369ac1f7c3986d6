package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

// -exhaustive with no -target sweeps every registered target once, in name
// order, judges each against its expected verdict and honours
// -max-violations: with a cap of one, a failing target reports at most one
// violation per violated condition.
func TestExhaustiveSweepsEveryTarget(t *testing.T) {
	const max = 1
	out, _ := runCLI(t, 0, "-exhaustive", "-max-violations", strconv.Itoa(max))

	var names []string
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
		checkCap()
		m := verdictLine.FindStringSubmatch(line)
		if m == nil || !strings.HasSuffix(line, "[as expected]") {
			t.Fatalf("unexpected line %q in:\n%s", line, out)
		}
		names = append(names, m[1])
		failing, conditions = "", map[string]bool{}
		if m[2] == "FAIL" {
			failing = m[1]
			violations, _ = strconv.Atoi(m[3])
		}
	}
	checkCap()

	targets := verifysys.ExhaustiveTargets()
	if len(names) != len(targets) {
		t.Fatalf("got %d verdict lines %v, want one per target (%d)", len(names), names, len(targets))
	}
	for i, tg := range targets {
		if names[i] != tg.Name {
			t.Errorf("verdict line %d is %q, want %q", i, names[i], tg.Name)
		}
	}
}

// The canary count documented in EXPERIMENTS: a change to it means the
// sweep no longer visits the same condition instances.
func TestExhaustiveSecureCanary(t *testing.T) {
	out, _ := runCLI(t, 0, "-exhaustive", "-target", "minisue:secure")
	want := "minisue:secure: PASS: 1252032 condition instances verified, 0 violations"
	if got := strings.Join(strings.Fields(out)[:8], " "); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-target", "toy:secure"}, "sepverify: -target requires -exhaustive"},
		{[]string{"-shard", "0/2"}, "sepverify: -shard, -shard-out and -checkpoint require -target"},
		{[]string{"-exhaustive", "-target", "toy:secure", "-shard", "2/2"}, `bad -shard "2/2" (want 0 <= k < n)`},
		{[]string{"-exhaustive", "-target", "nope"}, `unknown exhaustive target "nope"`},
		{[]string{"-merge"}, "sepverify: -merge needs shard-result files as arguments"},
	} {
		_, stderr := runCLI(t, 2, tc.args...)
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("sepverify %v: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}
