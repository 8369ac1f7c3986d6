package artifact_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/watch"
	"repro/internal/witness"
)

// readLines collects what artifact.ReadLines hands its callback.
func readLines(b []byte) ([][]byte, error) {
	var lines [][]byte
	err := artifact.ReadLines(b, func(line []byte) error {
		lines = append(lines, line)
		return nil
	})
	return lines, err
}

func joinLines(lines [][]byte) []byte {
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// encodeLines renders decoded records back into canonical JSONL.
func encodeLines[T any](t *testing.T, recs []T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// fixedPoint asserts that re-encoding recs and reading the result back is
// byte-stable.
func fixedPoint[T any](t *testing.T, recs []T, read func([]byte) ([]T, error)) {
	t.Helper()
	canon := encodeLines(t, recs)
	again, err := read(canon)
	if err != nil {
		t.Fatalf("canonical form failed to re-read: %v\n%s", err, canon)
	}
	if b := encodeLines(t, again); !bytes.Equal(b, canon) {
		t.Fatalf("canonicalization is not a fixed point:\n%s\nvs\n%s", canon, b)
	}
}

// FuzzReadLines holds the shared JSONL reader, and the witness-manifest and
// build-ledger readers built on it, total and canonicalizing: arbitrary
// bytes either fail with an error or read back to lines and records whose
// re-encoding is a byte-stable fixed point, and nothing panics. The
// committed corpus holds a real two-record ledger, the same ledger with a
// torn final line, and a witness manifest line.
func FuzzReadLines(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(" a \n\n\tb\r\nc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, err := readLines(data)
		if err != nil {
			return
		}
		canon := joinLines(lines)
		again, err := readLines(canon)
		if err != nil || !bytes.Equal(joinLines(again), canon) {
			t.Fatalf("line split is not a fixed point (%v):\n%q\nvs\n%q", err, canon, joinLines(again))
		}
		if ws, err := witness.ReadManifest(data); err == nil {
			fixedPoint(t, ws, witness.ReadManifest)
		}
		if recs, err := watch.ReadLedger(data); err == nil {
			fixedPoint(t, recs, watch.ReadLedger)
		}
	})
}

func TestReadLinesNumbersLines(t *testing.T) {
	var got []string
	err := artifact.ReadLines([]byte("a\n\n  b \nbad\nc"), func(line []byte) error {
		if string(line) == "bad" {
			return os.ErrInvalid
		}
		got = append(got, string(line))
		return nil
	})
	if strings.Join(got, ",") != "a,b" || err == nil || !strings.HasPrefix(err.Error(), "line 4: ") {
		t.Fatalf("read %v, err %v; want [a b] and a line 4 error", got, err)
	}
}

func TestAppendLineStartsALine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for _, tc := range []struct{ old, want string }{
		{"", "x\n"},
		{"a\n", "a\nx\n"},
		{"a", "a\nx\n"}, // a hand-edited log missing its final newline
	} {
		if err := artifact.AppendLine(path, []byte(tc.old), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(path); string(b) != tc.want {
			t.Errorf("AppendLine(%q) wrote %q, want %q", tc.old, b, tc.want)
		}
	}
}

func TestBlobRoundTripAndVerify(t *testing.T) {
	dir := t.TempDir()
	blob := []byte("state")
	addr := artifact.Hash(blob)
	if !artifact.IsHash(addr) || artifact.IsHash(addr[:63]) || artifact.IsHash(strings.Repeat("z", 64)) {
		t.Fatal("IsHash misclassifies addresses")
	}
	for i := 0; i < 2; i++ { // the second put finds the blob present
		if err := artifact.PutBlob(dir, blob); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := artifact.GetBlob(dir, addr); err != nil || !bytes.Equal(b, blob) {
		t.Fatalf("GetBlob = %q, %v", b, err)
	}
	if err := os.WriteFile(filepath.Join(dir, addr), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.GetBlob(dir, addr); err == nil {
		t.Error("tampered blob verified")
	}
}

func TestSealVerify(t *testing.T) {
	type rec struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	r := &rec{N: 1}
	if err := artifact.Seal(r, &r.ID); err != nil {
		t.Fatal(err)
	}
	if len(r.ID) != 16 {
		t.Fatalf("ID %q is not 16 hex digits", r.ID)
	}
	if err := artifact.Verify(r, &r.ID); err != nil {
		t.Fatalf("freshly sealed record fails to verify: %v", err)
	}
	id := r.ID
	r.N = 2
	if err := artifact.Verify(r, &r.ID); err == nil || r.ID != id {
		t.Fatalf("edited record verified (ID now %q): %v", r.ID, err)
	}
}
