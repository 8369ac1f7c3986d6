package main

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// sameResult fails unless got reproduces want exactly.
func sameResult(t *testing.T, want, got *separability.Result) {
	t.Helper()
	if want.Summary() != got.Summary() {
		t.Errorf("summary:\n want %s\n got  %s", want.Summary(), got.Summary())
	}
	if !reflect.DeepEqual(want.Checks, got.Checks) {
		t.Errorf("checks: want %v, got %v", want.Checks, got.Checks)
	}
	if !reflect.DeepEqual(want.OpChecks, got.OpChecks) {
		t.Errorf("op checks: want %v, got %v", want.OpChecks, got.OpChecks)
	}
	if want.States != got.States {
		t.Errorf("states: want %d, got %d", want.States, got.States)
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("violations: want %d, got %d", len(want.Violations), len(got.Violations))
	}
	for i, w := range want.Violations {
		if g := got.Violations[i]; g.Want != w.Want || g.Got != w.Got {
			t.Errorf("violation %d: want %016x/%016x, got %016x/%016x", i, w.Want, w.Got, g.Want, g.Got)
		}
	}
}

func TestShimReproducesRandomized(t *testing.T) {
	for _, name := range []string{"honest", "leak-RegisterLeak"} {
		d, ok := verifysys.FindDeployment(name)
		if !ok {
			t.Fatalf("deployment %q not registered", name)
		}
		build := func() *kernel.Adapter {
			sys, err := verifysys.FromSpec(d.Spec)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		for _, workers := range []int{1, 2} {
			opt := randomizedOptions(11, workers)
			opt.Trials, opt.StepsPerTrial = 4, 60
			want := separability.CheckRandomized(build(), opt)
			sh := newShim(build())
			sameResult(t, want, separability.CheckRandomized(sh, opt))
			p := sh.total()
			if p.calls[callDigest] == 0 || p.calls[callRollback] == 0 {
				t.Errorf("%s workers=%d: shim saw no digest or rollback calls: %v", name, workers, p.calls)
			}
			if workers > 1 && p.calls[callSave] == 0 {
				t.Errorf("%s workers=%d: checker did not replicate through the shim", name, workers)
			}
		}
	}
}

func TestShimReproducesExhaustive(t *testing.T) {
	for _, name := range []string{"minisue:secure", "minisue:shared-cell"} {
		tg, err := verifysys.FindExhaustiveTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			want, err := prove(tg.Build(), name, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prove(newShim(tg.Build()), name, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, got)
		}
	}
}

// enumerableOnly hides every optional interface of the system it holds.
type enumerableOnly struct{ model.Enumerable }

// The shim must not offer what the inner system lacks: a checker then
// takes its fallback path exactly as it would on the bare system.
func TestShimFallbacks(t *testing.T) {
	bare := enumerableOnly{minisue.New(minisue.Secure)}
	sh := newShim(bare)
	if c := sh.Clone(); c != nil {
		t.Fatalf("Clone of a non-Replicable system = %#v, want untyped nil", c)
	}
	if cp := sh.Checkpoint(); cp != nil {
		t.Fatalf("Checkpoint of a non-Checkpointer system = %#v, want nil", cp)
	}
	if _, ok := sh.DirtyColours(nil); ok {
		t.Fatal("DirtyColours answered for a system without a DirtyTracker")
	}
	for _, c := range bare.Colours() {
		if got, want := sh.AbstractDigest(c), model.AbstractDigest(bare, c); got != want {
			t.Fatalf("AbstractDigest(%s) = %016x, want %016x", c, got, want)
		}
	}
	if op := bare.NextOp(); sh.ClassifyOp(op) != model.OpClass(bare, op) {
		t.Fatalf("ClassifyOp(%q) = %q, want %q", op, sh.ClassifyOp(op), model.OpClass(bare, op))
	}
	want, err := prove(bare, "minisue:secure", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prove(newShim(enumerableOnly{minisue.New(minisue.Secure)}), "minisue:secure", 2)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)

	if _, ok := newShim(minisue.New(minisue.Secure)).Clone().(*shim); !ok {
		t.Fatal("Clone of a Replicable system is not wrapped in a shim")
	}
	sys, err := verifysys.FromSpec(verifysys.SpecFor("", true, false))
	if err != nil {
		t.Fatal(err)
	}
	ks := newShim(sys)
	cp := ks.Checkpoint()
	if cp == nil {
		t.Fatal("Checkpoint of the kernel adapter was not forwarded")
	}
	ks.Release(cp)
}
