package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// write lays out a synthetic source tree for the linter.
func write(t *testing.T, root, rel, src string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runLint(t *testing.T, root string) []lint.Diagnostic {
	t.Helper()
	diags, err := lint.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func rules(diags []lint.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Rule)
	}
	return out
}

func TestObsZeroDep(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/obs/metrics.go", `package obs
import (
	"fmt"
	"repro/internal/machine"
)
var _ = fmt.Sprint
var _ = machine.Word(0)
`)
	diags := runLint(t, root)
	if len(diags) != 1 || diags[0].Rule != "obs-zero-dep" {
		t.Fatalf("diags = %v, want one obs-zero-dep", diags)
	}
	// Test files may import whatever they like.
	root2 := t.TempDir()
	write(t, root2, "internal/obs/metrics_test.go", `package obs_test
import "repro/internal/obs"
var _ = obs.Event{}
`)
	if d := runLint(t, root2); len(d) != 0 {
		t.Fatalf("test file flagged: %v", d)
	}
}

func TestObsSubpackageImports(t *testing.T) {
	// Subpackages may build on the obs core and on covert, nothing else.
	root := t.TempDir()
	write(t, root, "internal/obs/analyze/analyze.go", `package analyze
import (
	"repro/internal/covert"
	"repro/internal/obs"
)
var _ = obs.Event{}
var _ = covert.Bitstring
`)
	if d := runLint(t, root); len(d) != 0 {
		t.Fatalf("allowed subpackage imports flagged: %v", d)
	}

	root2 := t.TempDir()
	write(t, root2, "internal/obs/analyze/bad.go", `package analyze
import "repro/internal/kernel"
var _ = kernel.Stats{}
`)
	diags := runLint(t, root2)
	if len(diags) != 1 || diags[0].Rule != "obs-zero-dep" {
		t.Fatalf("diags = %v, want one obs-zero-dep for the kernel import", diags)
	}
}

func TestRawMachineAccess(t *testing.T) {
	root := t.TempDir()
	const offender = `package x
func f(m interface{ SetReg(int, uint16) }) { m.SetReg(0, 1) }
`
	write(t, root, "internal/other/x.go", offender)
	// The same call inside an allowlisted package is fine.
	write(t, root, "internal/kernel/x.go", strings.Replace(offender, "package x", "package kernel", 1))
	// And fine in tests anywhere.
	write(t, root, "internal/other/x_test.go", strings.Replace(offender, "func f", "func g", 1))
	diags := runLint(t, root)
	if len(diags) != 1 || diags[0].Rule != "raw-machine-access" {
		t.Fatalf("diags = %v, want one raw-machine-access in internal/other", diags)
	}
	if !strings.Contains(diags[0].Pos.Filename, filepath.FromSlash("internal/other/x.go")) {
		t.Errorf("flagged wrong file: %s", diags[0].Pos)
	}
}

func TestRawDeviceAccess(t *testing.T) {
	root := t.TempDir()
	const offender = `package x
func f(d interface{ InjectInput([]uint16) bool }) { d.InjectInput(nil) }
`
	write(t, root, "internal/kernel/x.go", strings.Replace(offender, "package x", "package kernel", 1))
	// Only internal/machine itself owns the write barrier.
	write(t, root, "internal/machine/x.go", strings.Replace(offender, "package x", "package machine", 1))
	// And tests may poke devices directly.
	write(t, root, "internal/kernel/x_test.go", strings.Replace(offender, "func f", "func g", 1))
	diags := runLint(t, root)
	if len(diags) != 1 || diags[0].Rule != "raw-device-access" {
		t.Fatalf("diags = %v, want one raw-device-access in internal/kernel", diags)
	}
	if !strings.Contains(diags[0].Pos.Filename, filepath.FromSlash("internal/kernel/x.go")) {
		t.Errorf("flagged wrong file: %s", diags[0].Pos)
	}
}

func TestHookPurity(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/kernel/hooks.go", `package kernel
type K struct {
	tracer interface{ Emit(int) }
	state  int
	cells  [4]int
}
func (k *K) good() {
	if k.tracer != nil {
		k.tracer.Emit(k.state) // reading is fine
	}
	k.state++ // outside the hook: fine
}
func (k *K) badGuarded() {
	if k.tracer != nil {
		k.state = 7
	}
}
func (k *K) badAfterEarlyReturn() {
	if k.tracer == nil {
		return
	}
	k.cells[0] = 9
	k.tracer.Emit(0)
}
func (k *K) emitThing(v int) {
	k.state += v
}
func (k *K) setTracer(t interface{ Emit(int) }) {
	k.tracer = t // assigning the tracer field itself is sanctioned
}
`)
	diags := runLint(t, root)
	got := rules(diags)
	want := 3 // badGuarded, badAfterEarlyReturn, emitThing
	if len(got) != want {
		t.Fatalf("diags = %v, want %d obs-hook-pure", diags, want)
	}
	for _, r := range got {
		if r != "obs-hook-pure" {
			t.Fatalf("unexpected rule %s in %v", r, diags)
		}
	}
}

func TestHookPurityInsideLoop(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/machine/hooks.go", `package machine
type M struct {
	events interface{ Emit(int) }
	n      int
}
func (m *M) tick() {
	for i := 0; i < 3; i++ {
		if m.events != nil {
			m.n = i
		}
	}
}
`)
	diags := runLint(t, root)
	if len(diags) != 1 || diags[0].Rule != "obs-hook-pure" {
		t.Fatalf("diags = %v, want one obs-hook-pure inside the loop", diags)
	}
}

// Atomic-write primitives and SHA-256 stay inside internal/artifact (plus
// the allowlisted hashing package internal/auth); tests may use them
// anywhere.
func TestArtifactIO(t *testing.T) {
	root := t.TempDir()
	const offender = `package x
import (
	"crypto/sha256"
	"os"
)
var _ = sha256.Sum256
func f(p string) error { return os.Rename(p+".tmp", p) }
`
	write(t, root, "internal/witness/x.go", strings.Replace(offender, "package x", "package witness", 1))
	write(t, root, "internal/artifact/x.go", strings.Replace(offender, "package x", "package artifact", 1))
	write(t, root, "internal/auth/x.go", `package auth
import "crypto/sha256"
var _ = sha256.Sum256
`)
	write(t, root, "internal/witness/x_test.go", strings.Replace(offender, "func f", "func g", 1))
	diags := runLint(t, root)
	if got := strings.Join(rules(diags), ","); got != "artifact-io,artifact-io" {
		t.Fatalf("diags = %v, want the sha256 import and the os.Rename in internal/witness", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, filepath.FromSlash("internal/witness/x.go")) {
			t.Errorf("flagged wrong file: %s", d.Pos)
		}
	}
}

// TestRepositoryClean is the invariant itself: the real tree has zero
// violations. If this fails, the code — not the linter — regressed.
func TestRepositoryClean(t *testing.T) {
	diags := runLint(t, filepath.Join("..", ".."))
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
