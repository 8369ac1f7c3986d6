package witness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// marshalManifest renders witnesses back into canonical manifest bytes.
func marshalManifest(t *testing.T, ws []*witness.Witness) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, w := range ws {
		line, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// FuzzWitnessRead holds the manifest decoder total and canonicalizing:
// arbitrary bytes either fail with an error or decode to witnesses whose
// re-encoding is a fixed point (read -> write -> read -> write is
// byte-stable), and never panic. Same contract as obs.FuzzReadJSONL.
func FuzzWitnessRead(f *testing.F) {
	// A genuine captured manifest lives in the committed corpus
	// (testdata/fuzz/FuzzWitnessRead), regenerable with
	// TestRegenerateWitnessCorpus below; inline seeds cover the trivial
	// shapes. Keeping capture out of the seed phase matters: fuzz workers
	// re-run it per process, and under coverage instrumentation a full
	// checker run costs seconds.
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"id":"0000000000000000","snapshot":"x","steps":[]}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := witness.ReadManifest(data)
		if err != nil {
			return
		}
		canon := marshalManifest(t, ws)
		ws2, err := witness.ReadManifest(canon)
		if err != nil {
			t.Fatalf("canonical manifest failed to re-read: %v\n%s", err, canon)
		}
		if again := marshalManifest(t, ws2); !bytes.Equal(canon, again) {
			t.Fatalf("canonicalization is not a fixed point:\n%s\nvs\n%s", canon, again)
		}
	})
}

// TestRegenerateWitnessCorpus rewrites the committed FuzzWitnessRead corpus
// entry from a live capture when REGEN_WITNESS_CORPUS is set; otherwise it
// verifies the committed entry still parses as a valid manifest, so the
// corpus cannot silently rot when the schema evolves.
func TestRegenerateWitnessCorpus(t *testing.T) {
	path := filepath.Join("testdata", "fuzz", "FuzzWitnessRead", "captured-manifest")
	if os.Getenv("REGEN_WITNESS_CORPUS") == "" {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed corpus missing (run with REGEN_WITNESS_CORPUS=1): %v", err)
		}
		line := corpusValue(t, b)
		if _, err := witness.ReadManifest(line); err != nil {
			t.Fatalf("committed corpus entry no longer parses — schema drifted; "+
				"regenerate with REGEN_WITNESS_CORPUS=1: %v", err)
		}
		return
	}
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := separability.Options{Trials: 10, StepsPerTrial: 100, Seed: 99}
	res := separability.CheckRandomized(sys, opt)
	dir := t.TempDir()
	if _, err := witness.Capture(sys, opt, res, witness.Options{
		Dir: dir, System: spec, MaxWitnesses: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
	if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(entry))
}

// corpusValue extracts the single []byte value from a go-fuzz corpus file.
func corpusValue(t *testing.T, b []byte) []byte {
	t.Helper()
	lines := bytes.SplitN(b, []byte("\n"), 2)
	if len(lines) != 2 || !bytes.HasPrefix(lines[0], []byte("go test fuzz v1")) {
		t.Fatal("corpus file is not in go test fuzz v1 format")
	}
	body := bytes.TrimSpace(lines[1])
	body = bytes.TrimPrefix(body, []byte("[]byte("))
	body = bytes.TrimSuffix(body, []byte(")"))
	s, err := strconv.Unquote(string(body))
	if err != nil {
		t.Fatalf("corpus value unquote: %v", err)
	}
	return []byte(s)
}
