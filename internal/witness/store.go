package witness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/artifact"
)

// The on-disk layout of a witness directory:
//
//	<dir>/manifest.jsonl   — one canonical JSON Witness per line
//	<dir>/blobs/<sha256>   — pre-state snapshot blobs, content-addressed
//
// Both sides are content-addressed under the rules of package artifact:
// blobs by their SHA-256, manifest records by the ID sealed into each line.
// Re-capturing the identical counterexample is therefore idempotent — the
// store recognizes the ID and leaves the manifest as it is.

const (
	manifestName = "manifest.jsonl"
	blobsDir     = "blobs"
)

// writeWitness persists w into dir, creating the layout as needed. The
// blob write and the manifest rewrite are both skipped when the content is
// already present.
func writeWitness(dir string, w *Witness) error {
	if w.ID == "" {
		return fmt.Errorf("witness: refusing to persist a witness without an ID")
	}
	blobs := filepath.Join(dir, blobsDir)
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		return err
	}
	if w.blob != nil {
		if err := artifact.PutBlob(blobs, w.blob); err != nil {
			return err
		}
	}

	old, existing, err := load(dir)
	if err != nil {
		return err
	}
	for _, e := range existing {
		if e.ID == w.ID {
			return nil
		}
	}
	line, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return artifact.AppendLine(filepath.Join(dir, manifestName), old, line)
}

// Load reads the manifest of a witness directory. Snapshot blobs are NOT
// loaded — call LoadState per witness before replaying. A missing
// manifest yields an empty slice (an empty store, not an error).
func Load(dir string) ([]*Witness, error) {
	_, ws, err := load(dir)
	return ws, err
}

// load returns the manifest's bytes together with the witnesses they hold.
func load(dir string) ([]byte, []*Witness, error) {
	path := filepath.Join(dir, manifestName)
	b, err := artifact.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	ws, err := ReadManifest(b)
	if err != nil {
		return nil, nil, fmt.Errorf("witness: %s: %w", path, err)
	}
	return b, ws, nil
}

// ReadManifest decodes manifest.jsonl bytes. Every line must be a valid
// witness record: parseable JSON, an ID consistent with the record's
// content, and a well-formed snapshot hash. The decoder is total — any
// input, including adversarial bytes, yields witnesses or an error, never
// a panic (FuzzWitnessRead and artifact's FuzzReadLines hold it to that).
func ReadManifest(b []byte) ([]*Witness, error) {
	var out []*Witness
	err := artifact.ReadLines(b, func(line []byte) error {
		w := &Witness{}
		if err := json.Unmarshal(line, w); err != nil {
			return err
		}
		if err := validate(w); err != nil {
			return err
		}
		out = append(out, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validate enforces the structural invariants a record must satisfy before
// anything trusts it: a content-consistent ID, a hex snapshot address, and
// at least one step (the violating step itself).
func validate(w *Witness) error {
	if err := artifact.Verify(w, &w.ID); err != nil {
		return fmt.Errorf("witness: %w", err)
	}
	if !artifact.IsHash(w.Snapshot) {
		return fmt.Errorf("witness %s: snapshot address %q is not a sha256", w.ID, w.Snapshot)
	}
	if len(w.Steps) == 0 {
		return fmt.Errorf("witness %s: no steps", w.ID)
	}
	if w.Step < 0 || w.Trial < 0 || len(w.Steps) > w.OrigSteps {
		return fmt.Errorf("witness %s: inconsistent step accounting", w.ID)
	}
	return nil
}

// LoadState reads and verifies the witness's snapshot blob from dir,
// making the witness replayable.
func (w *Witness) LoadState(dir string) error {
	if w.blob != nil {
		return nil
	}
	b, err := artifact.GetBlob(filepath.Join(dir, blobsDir), w.Snapshot)
	if err != nil {
		return fmt.Errorf("witness %s: snapshot: %w", w.ID, err)
	}
	w.blob = b
	return nil
}
