package watch

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/witness"
)

func testRecord(deployment string, passed bool) *Record {
	return &Record{
		Deployment: deployment,
		Spec:       witness.SystemSpec{Kind: "verifysys", Cut: true},
		Build:      BuildInfo{GoVersion: "go1.test", Label: "t1"},
		Time:       1700000000,
		Seed:       99, Trials: 3, Steps: 50,
		Passed: passed, Checks: 1234, States: 150,
		TraceDigest: "cbf29ce484222325",
	}
}

func testTrace() []byte {
	events := []obs.Event{
		{Cycle: 0, Kind: obs.EvSyscallEnter, Regime: 0, Name: "SEND"},
		{Cycle: 1, Kind: obs.EvChanSend, Regime: 0, Arg: 0, Value: 7, Occ: 1, Name: "wp"},
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestLedgerAppendChainsAndRoundTrips(t *testing.T) {
	led, err := OpenLedger(t.TempDir(), "honest")
	if err != nil {
		t.Fatal(err)
	}
	if head, err := led.Head(); err != nil || head != nil {
		t.Fatalf("empty ledger Head = %v, %v", head, err)
	}

	trace := testTrace()
	r1 := testRecord("ignored-overwritten", true)
	if err := led.Append(r1, trace); err != nil {
		t.Fatal(err)
	}
	if r1.Seq != 1 || r1.PrevID != "" || r1.ID == "" {
		t.Fatalf("first record chain fields: seq=%d prev=%q id=%q", r1.Seq, r1.PrevID, r1.ID)
	}
	if r1.Deployment != "honest" {
		t.Fatalf("Append did not stamp the ledger's deployment: %q", r1.Deployment)
	}
	if r1.TraceBlob != artifact.Hash(trace) {
		t.Fatalf("blob address %q", r1.TraceBlob)
	}

	r2 := testRecord("honest", false)
	r2.Drift = []Drift{{Kind: DriftVerdictFlip, Regime: -1, DivergeAt: -1, Detail: "flip"}}
	if err := led.Append(r2, trace); err != nil {
		t.Fatal(err)
	}
	if r2.Seq != 2 || r2.PrevID != r1.ID {
		t.Fatalf("second record does not chain: seq=%d prev=%q want prev=%q", r2.Seq, r2.PrevID, r1.ID)
	}

	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != r1.ID || recs[1].ID != r2.ID {
		t.Fatalf("round trip lost records: %d", len(recs))
	}
	events, err := led.LoadTrace(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Kind != obs.EvChanSend {
		t.Fatalf("trace round trip: %+v", events)
	}

	// Identical traces are stored once (content-addressed).
	blobs, err := os.ReadDir(filepath.Join(led.Dir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("identical trace stored %d times", len(blobs))
	}
}

func TestLedgerRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := led.Append(testRecord("d", true), testTrace()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(led.Dir(), "ledger.jsonl")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(pristine), "\n"), "\n")

	mutate := func(name string, corrupt func() string) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(corrupt()), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, pristine, 0o644)
			if _, err := led.Records(); err == nil {
				t.Error("tampered ledger decoded cleanly")
			}
		})
	}
	mutate("edited field", func() string {
		return strings.Replace(string(pristine), `"passed":true`, `"passed":false`, 1)
	})
	mutate("first line deleted", func() string {
		return strings.Join(lines[1:], "")
	})
	mutate("lines swapped", func() string {
		return lines[1] + lines[0] + lines[2]
	})
	mutate("line truncated", func() string {
		l0 := lines[0]
		return l0[:len(l0)/2] + "\n" + strings.Join(lines[1:], "")
	})
	mutate("record duplicated", func() string {
		return string(pristine) + lines[2]
	})

	// The blob is verified against its address on load.
	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	bp := filepath.Join(led.Dir(), "blobs", recs[0].TraceBlob)
	if err := os.WriteFile(bp, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := led.LoadTrace(recs[0]); err == nil {
		t.Error("corrupt trace blob loaded cleanly")
	}
}

func TestOpenLedgerRejectsUnsafeNames(t *testing.T) {
	for _, name := range []string{"", "..", "a/b", "a:b", ".hidden", "a b", "-x"} {
		if _, err := OpenLedger(t.TempDir(), name); err == nil {
			t.Errorf("OpenLedger accepted %q", name)
		}
	}
	for _, name := range []string{"honest", "leak-RegisterLeak", "minisue-secure", "a.b_c-d"} {
		if _, err := OpenLedger(t.TempDir(), name); err != nil {
			t.Errorf("OpenLedger rejected %q: %v", name, err)
		}
	}
}

func TestRecordValidateRejectsBadShapes(t *testing.T) {
	led, err := OpenLedger(t.TempDir(), "d")
	if err != nil {
		t.Fatal(err)
	}
	good := testRecord("d", true)
	if err := led.Append(good, nil); err != nil {
		t.Fatal(err)
	}
	bad := []func(r *Record){
		func(r *Record) { r.Version = 99 },
		func(r *Record) { r.Kind = "witness" },
		func(r *Record) { r.TraceDigest = "xyz" },
		func(r *Record) { r.TraceBlob = "deadbeef" },
		func(r *Record) { r.Drift = []Drift{{Kind: "made-up"}} },
		func(r *Record) { r.Regimes = []RegimeDigest{{Regime: 0, Digest: "short"}} },
	}
	for i, corrupt := range bad {
		r := testRecord("d", true)
		r.Seq, r.PrevID = 1, ""
		corrupt(r)
		if err := artifact.Seal(r, &r.ID); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(r)
		if _, err := ReadLedger(append(b, '\n')); err == nil {
			t.Errorf("bad shape %d decoded cleanly", i)
		}
	}
}

func TestBuildInfoString(t *testing.T) {
	cases := []struct {
		b    BuildInfo
		want string
	}{
		{BuildInfo{GoVersion: "go1.24", Label: "ci-42"}, "ci-42 (go1.24)"},
		{BuildInfo{GoVersion: "go1.24", Revision: "0123456789abcdef0123"}, "0123456789ab (go1.24)"},
		{BuildInfo{GoVersion: "go1.24", Revision: "abc", Dirty: true}, "abc+dirty (go1.24)"},
		{BuildInfo{GoVersion: "go1.24"}, "unstamped (go1.24)"},
	}
	for _, tc := range cases {
		if got := tc.b.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.b, got, tc.want)
		}
	}
}

func TestCurrentBuildStampsToolchain(t *testing.T) {
	b := CurrentBuild("lbl")
	if b.GoVersion == "" {
		t.Error("CurrentBuild has no Go version")
	}
	if b.Label != "lbl" {
		t.Errorf("label = %q", b.Label)
	}
}
