package watch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/witness"
)

// The on-disk layout of a watch directory mirrors the witness store:
//
//	<dir>/<deployment>/ledger.jsonl   — one canonical JSON Record per line
//	<dir>/<deployment>/blobs/<sha256> — JSONL trace blobs, content-addressed
//
// Records are sealed with a content ID (package artifact) and hash-chained
// (each record pins its predecessor's ID), so the decoder is
// tamper-evident twice over: editing any line breaks its own ID, and
// deleting or reordering lines breaks the chain.

const (
	// LedgerSchemaVersion versions the build-record schema.
	LedgerSchemaVersion = 1
	// KindBuildRecord is the kind every ledger record carries. Like the
	// kinds of shard results and checkpoints, it lets a reader reject a
	// record of another schema; witnesses carry no kind.
	KindBuildRecord = "build-record"

	ledgerName = "ledger.jsonl"
	blobsDir   = "blobs"
)

// BuildInfo identifies the build that produced a record, so `sepwatch
// history` can attribute drift to a build rather than just a time.
type BuildInfo struct {
	// GoVersion is runtime.Version() of the verifying process.
	GoVersion string `json:"goVersion"`
	// Revision is the VCS revision baked into the binary (debug.BuildInfo
	// vcs.revision), when the binary was built from a checkout.
	Revision string `json:"revision,omitempty"`
	// Dirty marks a VCS build with uncommitted changes.
	Dirty bool `json:"dirty,omitempty"`
	// Label is an explicit operator-provided build label (`sepwatch
	// -build`), for builds with no embedded VCS stamp.
	Label string `json:"label,omitempty"`
}

// String renders the identity as history listings print it.
func (b BuildInfo) String() string {
	id := b.Label
	if id == "" {
		id = b.Revision
		if len(id) > 12 {
			id = id[:12]
		}
		if b.Dirty {
			id += "+dirty"
		}
	}
	if id == "" {
		id = "unstamped"
	}
	return id + " (" + b.GoVersion + ")"
}

// RegimeDigest is one regime's trace-projection digest: the Φ^c of the
// deployment trace, as computed by analyze.Project.
type RegimeDigest struct {
	Regime int `json:"regime"`
	// Events is the length of the regime's observable projection.
	Events int `json:"events"`
	// Digest is the projection's canonical FNV-1a digest, 16 hex digits.
	Digest string `json:"digest"`
}

// ChannelStat counts one channel's traffic in the deployment trace. A
// channel whose traffic disappears between builds is the cut-channel
// regression Zhao et al. frame as the failure mode to watch for.
type ChannelStat struct {
	Channel int `json:"chan"`
	Sends   int `json:"sends"`
	Recvs   int `json:"recvs"`
}

// Drift kinds, from most to least alarming.
const (
	// DriftVerdictFlip: the verification verdict changed between builds.
	DriftVerdictFlip = "verdict-flip"
	// DriftDigest: a regime's trace-projection digest changed — the
	// deployment is observably different to at least one regime.
	DriftDigest = "digest-drift"
	// DriftChannel: a sanctioned channel carried traffic in one build and
	// none in the other (cut or un-cut between builds).
	DriftChannel = "channel-regression"
)

// Drift is one classified difference between consecutive builds of a
// deployment.
type Drift struct {
	// Kind is one of the Drift* constants.
	Kind string `json:"kind"`
	// Regime is the diverging regime for digest drift (-1 otherwise).
	Regime int `json:"regime"`
	// DivergeAt is the index of the first divergent event in the diverging
	// regime's projection (-1 when no trace-level divergence was located).
	DivergeAt int `json:"divergeAt"`
	// Detail is the human-readable story.
	Detail string `json:"detail"`
}

func (d Drift) String() string {
	if d.Kind == DriftDigest && d.Regime >= 0 {
		return fmt.Sprintf("%s: regime %d at event %d: %s", d.Kind, d.Regime, d.DivergeAt, d.Detail)
	}
	return d.Kind + ": " + d.Detail
}

// Record is one build's verification outcome for one deployment: the
// ledger line IS the artifact. All fields are stable JSON.
type Record struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// ID is the record's content ID (see package artifact).
	ID string `json:"id"`
	// PrevID chains this record to its predecessor ("" for the first
	// build); Seq is the 1-based build number.
	PrevID string `json:"prevId,omitempty"`
	Seq    int    `json:"seq"`

	// What was verified.
	Deployment string             `json:"deployment"`
	Spec       witness.SystemSpec `json:"spec"`
	Build      BuildInfo          `json:"build"`
	// Time is the verification time, unix seconds.
	Time int64 `json:"time"`

	// Verification parameters and outcome. Exhaustive names the registered
	// exhaustive target when the verdict came from a sharded exhaustive
	// sweep; otherwise Trials x Steps randomized checking produced it.
	Seed       int64  `json:"seed"`
	Trials     int    `json:"trials,omitempty"`
	Steps      int    `json:"steps,omitempty"`
	Exhaustive string `json:"exhaustive,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	Passed     bool   `json:"passed"`
	// Checks totals the verified condition instances; States the states
	// they were checked at.
	Checks int `json:"checks"`
	States int `json:"states"`
	// Violations carries the first few counterexamples behind a FAIL.
	Violations []separability.ViolationRecord `json:"violations,omitempty"`

	// The canonical deployment trace: step/event counts, the
	// content-address of the JSONL blob, per-regime projection digests and
	// their combined digest, and per-channel traffic.
	TraceSteps  int            `json:"traceSteps,omitempty"`
	TraceEvents int            `json:"traceEvents"`
	TraceBlob   string         `json:"traceBlob,omitempty"`
	TraceDigest string         `json:"traceDigest"`
	Regimes     []RegimeDigest `json:"regimes,omitempty"`
	Channels    []ChannelStat  `json:"channels,omitempty"`

	// Drift classifies this build against its predecessor (empty for the
	// first build and for builds identical to their predecessor).
	Drift []Drift `json:"drift,omitempty"`
}

// Validate checks the structural invariants of one record in isolation
// (the chain invariants need the predecessor; Records checks those).
func (r *Record) Validate() error {
	if r.Version != LedgerSchemaVersion {
		return fmt.Errorf("unsupported build-record version %d", r.Version)
	}
	if r.Kind != KindBuildRecord {
		return fmt.Errorf("kind %q, want %q", r.Kind, KindBuildRecord)
	}
	if err := artifact.Verify(r, &r.ID); err != nil {
		return err
	}
	if r.Seq < 1 {
		return fmt.Errorf("record %s: seq %d < 1", r.ID, r.Seq)
	}
	if r.Deployment == "" {
		return fmt.Errorf("record %s: no deployment name", r.ID)
	}
	if r.TraceBlob != "" && !artifact.IsHash(r.TraceBlob) {
		return fmt.Errorf("record %s: trace blob address %q is not a sha256", r.ID, r.TraceBlob)
	}
	if len(r.TraceDigest) != 16 {
		return fmt.Errorf("record %s: trace digest %q is not 16 hex digits", r.ID, r.TraceDigest)
	}
	for _, rd := range r.Regimes {
		if len(rd.Digest) != 16 {
			return fmt.Errorf("record %s: regime %d digest %q is not 16 hex digits", r.ID, rd.Regime, rd.Digest)
		}
	}
	for _, d := range r.Drift {
		switch d.Kind {
		case DriftVerdictFlip, DriftDigest, DriftChannel:
		default:
			return fmt.Errorf("record %s: unknown drift kind %q", r.ID, d.Kind)
		}
	}
	return nil
}

// deploymentNameRe keeps ledger directories inside the watch root: one
// path segment, no separators or traversal.
var deploymentNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Ledger is one deployment's append-only build history.
type Ledger struct {
	dir        string
	deployment string
}

// OpenLedger opens (without creating anything yet) the ledger for one
// deployment under the watch root directory.
func OpenLedger(root, deployment string) (*Ledger, error) {
	if !deploymentNameRe.MatchString(deployment) {
		return nil, fmt.Errorf("watch: deployment name %q is not a valid ledger directory name", deployment)
	}
	return &Ledger{dir: filepath.Join(root, deployment), deployment: deployment}, nil
}

// Dir returns the ledger's directory.
func (l *Ledger) Dir() string { return l.dir }

// Records reads and validates the full history, oldest first. Every line
// must carry a content-consistent ID, name this ledger's deployment, and
// chain to its predecessor (Seq increments from 1, PrevID pins the prior
// record's ID). A missing ledger file is an empty history, not an error.
func (l *Ledger) Records() ([]*Record, error) {
	_, recs, err := l.read()
	return recs, err
}

// read returns the ledger file's bytes together with its validated records.
func (l *Ledger) read() ([]byte, []*Record, error) {
	path := filepath.Join(l.dir, ledgerName)
	b, err := artifact.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	recs, err := ReadLedger(b)
	if err != nil {
		return nil, nil, fmt.Errorf("watch: %s: %w", path, err)
	}
	for _, r := range recs {
		if r.Deployment != l.deployment {
			return nil, nil, fmt.Errorf("watch: %s: record %s names deployment %q", path, r.ID, r.Deployment)
		}
	}
	return b, recs, nil
}

// ReadLedger decodes ledger.jsonl bytes, enforcing per-record and chain
// invariants. The decoder is total: arbitrary bytes yield records or an
// error, never a panic.
func ReadLedger(b []byte) ([]*Record, error) {
	var out []*Record
	err := artifact.ReadLines(b, func(line []byte) error {
		rec := &Record{}
		if err := json.Unmarshal(line, rec); err != nil {
			return err
		}
		if err := rec.Validate(); err != nil {
			return err
		}
		if len(out) == 0 {
			if rec.Seq != 1 || rec.PrevID != "" {
				return fmt.Errorf("record %s does not start a chain (seq %d, prevId %q)",
					rec.ID, rec.Seq, rec.PrevID)
			}
		} else if prev := out[len(out)-1]; rec.Seq != prev.Seq+1 {
			return fmt.Errorf("seq %d after %d: ledger reordered or truncated", rec.Seq, prev.Seq)
		} else if rec.PrevID != prev.ID {
			return fmt.Errorf("prevId %q does not chain to %s: ledger edited", rec.PrevID, prev.ID)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Head returns the most recent record (nil for an empty ledger).
func (l *Ledger) Head() (*Record, error) {
	recs, err := l.Records()
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	return recs[len(recs)-1], nil
}

// Append chains rec onto the ledger and persists it together with its
// trace blob. The chain fields (Seq, PrevID), the blob address and the ID
// are computed here; callers fill everything else. The ledger is
// single-writer: one sepwatch process owns a watch directory.
func (l *Ledger) Append(rec *Record, trace []byte) error {
	old, recs, err := l.read()
	if err != nil {
		return err
	}
	rec.Version = LedgerSchemaVersion
	rec.Kind = KindBuildRecord
	rec.Deployment = l.deployment
	rec.Seq, rec.PrevID = 1, ""
	if n := len(recs); n > 0 {
		rec.Seq, rec.PrevID = recs[n-1].Seq+1, recs[n-1].ID
	}
	if trace != nil {
		rec.TraceBlob = artifact.Hash(trace)
	}
	if err := artifact.Seal(rec, &rec.ID); err != nil {
		return err
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("watch: refusing to append invalid record: %w", err)
	}

	blobs := filepath.Join(l.dir, blobsDir)
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		return err
	}
	if trace != nil {
		// An identical trace (the idempotent re-verification case) is
		// stored once.
		if err := artifact.PutBlob(blobs, trace); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return artifact.AppendLine(filepath.Join(l.dir, ledgerName), old, line)
}

// LoadTrace reads, verifies and decodes rec's trace blob. A record with no
// blob yields (nil, nil).
func (l *Ledger) LoadTrace(rec *Record) ([]obs.Event, error) {
	if rec.TraceBlob == "" {
		return nil, nil
	}
	b, err := artifact.GetBlob(filepath.Join(l.dir, blobsDir), rec.TraceBlob)
	if err != nil {
		return nil, fmt.Errorf("watch: record %s: trace: %w", rec.ID, err)
	}
	return obs.ReadJSONL(bytes.NewReader(b))
}
