package separability_test

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/separability"
)

// prove runs the whole exhaustive sweep of sys on the given number of
// workers (0 = one per CPU core) and returns its verdict, failing the test
// on error.
func prove(tb testing.TB, sys model.Enumerable, maxViolations, workers int) *separability.Result {
	tb.Helper()
	sr, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		MaxViolations: maxViolations, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sr.Result()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestToySecureExhaustivePasses(t *testing.T) {
	sys := separability.NewToySystem(separability.ToySecure)
	res := prove(t, sys, 0, 0)
	if !res.Passed() {
		t.Fatalf("secure toy system failed exhaustive check: %s", res.Summary())
	}
	// Every condition must actually have been exercised.
	for c := separability.Condition1; c <= separability.Condition6; c++ {
		if res.Checks[c] == 0 {
			t.Errorf("%s was never checked", c)
		}
	}
}

func TestToyVariantsCaughtExhaustive(t *testing.T) {
	for variant, want := range separability.ToyVariantConditions {
		name := separability.ToyVariantName(variant)
		t.Run(name, func(t *testing.T) {
			sys := separability.NewToySystem(variant)
			res := prove(t, sys, 0, 0)
			if res.Passed() {
				t.Fatalf("insecure variant %s passed the exhaustive check", name)
			}
			found := false
			for _, got := range res.ViolatedConditions() {
				if got == want {
					found = true
				}
			}
			if !found {
				t.Errorf("variant %s: want %s among violations, got %v",
					name, want, res.ViolatedConditions())
			}
		})
	}
}

func TestToySecureRandomizedPasses(t *testing.T) {
	sys := separability.NewToySystem(separability.ToySecure)
	opt := separability.Options{Trials: 20, StepsPerTrial: 50, Seed: 1}
	res := separability.CheckRandomized(sys, opt)
	if !res.Passed() {
		t.Fatalf("secure toy system failed randomized check: %s", res.Summary())
	}
	for _, c := range []separability.Condition{
		separability.Condition1, separability.Condition2,
		separability.Condition3, separability.Condition5,
		separability.Condition6,
	} {
		if res.Checks[c] == 0 {
			t.Errorf("randomized check never exercised %s", c)
		}
	}
}

func TestToyVariantsCaughtRandomized(t *testing.T) {
	for variant, want := range separability.ToyVariantConditions {
		name := separability.ToyVariantName(variant)
		t.Run(name, func(t *testing.T) {
			sys := separability.NewToySystem(variant)
			opt := separability.Options{Trials: 40, StepsPerTrial: 60, Seed: 7}
			res := separability.CheckRandomized(sys, opt)
			if res.Passed() {
				t.Fatalf("insecure variant %s passed the randomized check", name)
			}
			found := false
			for _, got := range res.ViolatedConditions() {
				if got == want {
					found = true
				}
			}
			if !found {
				t.Errorf("variant %s: want %s among violations, got %v",
					name, want, res.ViolatedConditions())
			}
		})
	}
}

func TestResultSummaryFormats(t *testing.T) {
	sys := separability.NewToySystem(separability.ToySecure)
	res := prove(t, sys, 0, 0)
	if got := res.Summary(); len(got) == 0 || got[:4] != "PASS" {
		t.Errorf("summary = %q, want PASS...", got)
	}
	bad := separability.NewToySystem(separability.ToyDirectWrite)
	res = prove(t, bad, 0, 0)
	if got := res.Summary(); len(got) == 0 || got[:4] != "FAIL" {
		t.Errorf("summary = %q, want FAIL...", got)
	}
}

// MaxViolations caps the counterexamples collected per condition: no
// condition may exceed the cap, and every condition the uncapped run
// catches must still surface under a tight cap.
func TestMaxViolationsCapsPerCondition(t *testing.T) {
	bad := separability.NewToySystem(separability.ToyDirectWrite)
	res := prove(t, bad, 5, 0)
	perCond := map[separability.Condition]int{}
	for _, v := range res.Violations {
		perCond[v.Condition]++
	}
	for c, n := range perCond {
		if n > 5 {
			t.Errorf("collected %d violations for %s, cap was 5", n, c)
		}
	}
	full := prove(t, separability.NewToySystem(separability.ToyDirectWrite), 1<<20, 0)
	want := full.ViolatedConditions()
	got := prove(t, separability.NewToySystem(separability.ToyDirectWrite), 1, 0).ViolatedConditions()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("cap 1 lost conditions: got %v, uncapped %v", got, want)
	}
}
