// Package witness turns separability violations into first-class,
// replayable artifacts. Rushby's argument rests on *exhibiting* an
// information channel when separability fails; a witness is that exhibit
// made durable: the trial's pre-state, the exact input sequence that walked
// the system to the violating state, the seed of the condition sweep that
// caught it, and the Φ^c digest disagreement — enough to re-execute the
// counterexample against a freshly built system in a later process and
// watch the same condition fire.
//
// The capture contract comes from package separability's two-stream RNG
// split: the state checked at (trial, step) is a pure function of the
// walk's inputs (WalkTrial re-derives them), and the condition sweep there
// is a pure function of that state plus StepCheckSeed. Capture is entirely
// cold-side — it re-runs trials only after CheckRandomized has returned, so
// enabling it cannot change a verification Result or its hot-path cost.
//
// Captured witnesses are shrunk greybox-style (prefix halving, then
// per-operation drops, each candidate validated by an actual replay) and
// persisted to a content-addressed directory: a manifest.jsonl of canonical
// JSON records plus blobs/<sha256> pre-state snapshots.
package witness

import (
	"encoding/json"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
)

// Step is one walk entry: the input applied at that step ("null" for the
// pure device-tick steps between injections), encoded by the system's
// model.Portable codec.
type Step struct {
	Input json.RawMessage `json:"input"`
}

// SystemSpec names the system a witness was captured from, with enough
// detail for a later process to rebuild an equivalent instance (see
// verifysys.FromSpec). Kind is a registry key ("verifysys" for the standard
// verification configuration); Leak is the planted-leak name, empty for the
// honest kernel.
type SystemSpec struct {
	Kind string `json:"kind"`
	Leak string `json:"leak,omitempty"`
	Cut  bool   `json:"cut"`
}

// Witness is one replayable counterexample. All fields are stable JSON —
// the manifest line IS the artifact; the pre-state snapshot blob is stored
// beside it, keyed by Snapshot (its SHA-256).
type Witness struct {
	// ID is the first 16 hex digits of the SHA-256 of the canonical JSON
	// encoding of this record with ID itself blanked: content-addressed,
	// so identical counterexamples collide instead of duplicating.
	ID     string     `json:"id"`
	System SystemSpec `json:"system"`

	// Provenance: which checker run found it.
	Seed  int64 `json:"seed"`
	Trial int   `json:"trial"`
	Step  int   `json:"step"`

	// CheckSeed drives the replayed condition sweep. It is recorded as
	// StepCheckSeed(Seed, Trial, Step) at capture time and never changes —
	// shrinking shortens the walk but replays the identical sweep.
	CheckSeed int64 `json:"checkSeed"`
	Sched     bool  `json:"sched,omitempty"`

	// The violation the witness reproduces. Want and Got are the two
	// 64-bit Φ^c (or extract) digests whose disagreement constitutes the
	// violation, as 16-digit hex strings.
	Condition     int    `json:"condition"`
	ConditionName string `json:"conditionName"`
	Colour        string `json:"colour"`
	Op            string `json:"op"`
	Detail        string `json:"detail"`
	Want          string `json:"want"`
	Got           string `json:"got"`

	// Shrink provenance: the original walk length (entries) and how many
	// replays the shrinker spent. len(Steps) is the shrunk length.
	OrigSteps     int `json:"origSteps"`
	ShrinkReplays int `json:"shrinkReplays,omitempty"`

	// Snapshot is the SHA-256 (hex) of the pre-state blob in blobs/.
	Snapshot string `json:"snapshot"`
	Steps    []Step `json:"steps"`

	// Events is the obs event window emitted while replaying the shrunk
	// sequence: the system-level story (context switches, traps, channel
	// traffic) leading into the violation.
	Events []obs.Event `json:"events,omitempty"`

	// In-memory state, populated on capture or by LoadState: the pre-state
	// blob and its decoded StateRef.
	blob []byte
	ref  model.StateRef
}

// Options tunes Capture.
type Options struct {
	// Dir is the artifact directory; empty means capture without
	// persisting (the caller keeps the returned witnesses in memory).
	Dir string
	// MaxWitnesses bounds how many violations are captured, after
	// deduplication by (condition, colour) (0 = 8).
	MaxWitnesses int
	// ShrinkReplays bounds how many candidate replays the shrinker may
	// spend per witness (0 = 256; negative = no shrinking).
	ShrinkReplays int
	// EventWindow is the obs ring capacity for the captured event window
	// (0 = 64).
	EventWindow int
	// Metrics, when non-nil, receives sep_witness_captured_total,
	// sep_witness_shrunk_ops_total and sep_witness_replayed_total.
	Metrics *obs.Registry
	// System is stamped into each witness so replay tooling can rebuild
	// the system it was captured from.
	System SystemSpec
}

func (o *Options) fill() {
	if o.MaxWitnesses == 0 {
		o.MaxWitnesses = 8
	}
	if o.ShrinkReplays == 0 {
		o.ShrinkReplays = 256
	}
	if o.EventWindow == 0 {
		o.EventWindow = 64
	}
}

// tracerSetter is how a tracer is attached for event-window capture; the
// kernel adapter implements it. Systems that don't simply yield witnesses
// without event windows.
type tracerSetter interface {
	SetTracer(t obs.Tracer)
}

// Capture re-derives a replayable witness for each violation in res (up to
// opt.MaxWitnesses after deduplication by condition and colour), shrinks
// it, and — when opt.Dir is set — persists it. sys must be the system the
// check ran against (or an equivalent replica) and must implement
// model.Portable; opt must be the exact Options the check ran with. The
// system's current state is disturbed.
//
// Capture never runs unless the caller asks for it, and it re-executes
// trials entirely after the fact: the verification Result it works from is
// immutable by construction.
func Capture(sys model.Perturbable, copt separability.Options,
	res *separability.Result, opt Options) ([]*Witness, error) {

	opt.fill()
	port, ok := sys.(model.Portable)
	if !ok {
		return nil, fmt.Errorf("witness: system %T does not implement model.Portable", sys)
	}

	var replayed, shrunkOps, captured *obs.Counter
	if opt.Metrics != nil {
		captured = opt.Metrics.Counter("sep_witness_captured_total")
		shrunkOps = opt.Metrics.Counter("sep_witness_shrunk_ops_total")
		replayed = opt.Metrics.Counter("sep_witness_replayed_total")
	}

	seen := map[string]bool{}
	var out []*Witness
	for _, v := range res.Violations {
		key := fmt.Sprintf("%d/%s", v.Condition, v.Colour)
		if seen[key] {
			continue
		}
		if len(out) >= opt.MaxWitnesses {
			break
		}
		w, err := captureOne(sys, port, copt, v, opt, replayed, shrunkOps)
		if err != nil {
			return out, fmt.Errorf("witness: violation %s at trial %d step %d: %w",
				v.Condition, v.Trial, v.Step, err)
		}
		seen[key] = true
		out = append(out, w)
		if captured != nil {
			captured.Inc()
		}
		if opt.Dir != "" {
			if err := writeWitness(opt.Dir, w); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// captureOne builds, verifies and shrinks the witness for one violation.
func captureOne(sys model.Perturbable, port model.Portable, copt separability.Options,
	v separability.Violation, opt Options, replayed, shrunkOps *obs.Counter) (*Witness, error) {

	// Re-walk the trial, snapshotting its start state and recording every
	// input up to and including the violating step's.
	var ref model.StateRef
	var ins []model.Input
	separability.WalkTrial(sys, copt, v.Trial, func(step int, in model.Input) bool {
		if step == 0 {
			ref = sys.Save()
		}
		ins = append(ins, in)
		return step < v.Step
	})
	if ref == nil || len(ins) != v.Step+1 {
		return nil, fmt.Errorf("walk replayed %d steps, want %d (StepsPerTrial too small?)",
			len(ins), v.Step+1)
	}

	w := &Witness{
		System:        opt.System,
		Seed:          copt.Seed,
		Trial:         v.Trial,
		Step:          v.Step,
		CheckSeed:     separability.StepCheckSeed(copt.Seed, v.Trial, v.Step),
		Sched:         copt.CheckScheduling,
		Condition:     int(v.Condition),
		ConditionName: v.Condition.String(),
		Colour:        string(v.Colour),
		OrigSteps:     len(ins),
		ref:           ref,
	}

	// The full sequence must reproduce the original violation exactly —
	// same digests — or the witness is worthless; fail loudly.
	got := replaySeq(sys, ref, ins, w, replayed)
	if got == nil {
		return nil, fmt.Errorf("full sequence failed to reproduce the violation")
	}
	if got.Want != v.Want || got.Got != v.Got {
		return nil, fmt.Errorf("full-sequence replay digests %016x/%016x differ from original %016x/%016x",
			got.Want, got.Got, v.Want, v.Got)
	}

	// Shrink, then re-stamp the violation detail from the last good replay
	// (the shrunk walk reaches a different — smaller — violating state, so
	// its digests, op and detail are the ones replay tooling must match).
	final := *got
	if opt.ShrinkReplays > 0 {
		ref, ins, final = shrinkSeq(sys, ref, ins, w, *got, opt.ShrinkReplays, replayed, shrunkOps)
		w.ref = ref
	}
	w.Op = string(final.Op)
	w.Detail = final.Detail
	w.Want = fmt.Sprintf("%016x", final.Want)
	w.Got = fmt.Sprintf("%016x", final.Got)

	// Event window: one more replay of the final sequence with a ring
	// tracer attached, when the system supports attachment. Tracing is
	// host-side observation only — it cannot change what replays.
	if ts, ok := sys.(tracerSetter); ok {
		ring := obs.NewRing(opt.EventWindow)
		ts.SetTracer(ring)
		rv := replaySeq(sys, ref, ins, w, replayed)
		ts.SetTracer(nil)
		if rv == nil {
			return nil, fmt.Errorf("traced replay failed to reproduce the violation")
		}
		w.Events = ring.Events()
	}

	// Persistably encode state and inputs.
	blob, err := port.EncodeState(ref)
	if err != nil {
		return nil, err
	}
	w.blob = blob
	w.Snapshot = artifact.Hash(blob)
	w.Steps = make([]Step, len(ins))
	for i, in := range ins {
		b, err := port.EncodeInput(in)
		if err != nil {
			return nil, err
		}
		w.Steps[i] = Step{Input: rawOrNull(b)}
	}
	if err := artifact.Seal(w, &w.ID); err != nil {
		return nil, err
	}
	return w, nil
}

// Replay re-executes w against sys — restore the pre-state, apply the
// recorded inputs with a machine step between each, then run the recorded
// condition sweep at the final state — and returns the violation matching
// the witness's condition and colour, or an error naming what diverged. sys
// must implement model.Portable when w came from disk (its state and inputs
// still need decoding); a freshly captured witness replays directly.
func Replay(sys model.Perturbable, w *Witness) (*separability.Violation, error) {
	if err := decodeForReplay(sys, w); err != nil {
		return nil, err
	}
	ins, err := decodeInputs(sys, w)
	if err != nil {
		return nil, err
	}
	got := replaySeq(sys, w.ref, ins, w, nil)
	if got == nil {
		return nil, fmt.Errorf("witness %s: condition %s did not fire for colour %s at replayed step %d",
			w.ID, w.ConditionName, w.Colour, len(ins)-1)
	}
	if want := fmt.Sprintf("%016x/%016x", got.Want, got.Got); want != w.Want+"/"+w.Got {
		return nil, fmt.Errorf("witness %s: condition fired but digests %s differ from recorded %s/%s",
			w.ID, want, w.Want, w.Got)
	}
	return got, nil
}

// decodeForReplay materializes w.ref from the blob when the witness was
// loaded from disk rather than captured in-process.
func decodeForReplay(sys model.Perturbable, w *Witness) error {
	if w.ref != nil {
		return nil
	}
	port, ok := sys.(model.Portable)
	if !ok {
		return fmt.Errorf("witness: system %T does not implement model.Portable", sys)
	}
	if w.blob == nil {
		return fmt.Errorf("witness %s: snapshot blob not loaded (use LoadState)", w.ID)
	}
	ref, err := port.DecodeState(w.blob)
	if err != nil {
		return err
	}
	w.ref = ref
	return nil
}

// decodeInputs materializes the recorded walk inputs.
func decodeInputs(sys model.Perturbable, w *Witness) ([]model.Input, error) {
	port, _ := sys.(model.Portable)
	ins := make([]model.Input, len(w.Steps))
	for i, s := range w.Steps {
		if isNullRaw(s.Input) {
			continue
		}
		if port == nil {
			return nil, fmt.Errorf("witness: system %T does not implement model.Portable", sys)
		}
		in, err := port.DecodeInput(s.Input)
		if err != nil {
			return nil, fmt.Errorf("witness %s: step %d: %w", w.ID, i, err)
		}
		ins[i] = in
	}
	return ins, nil
}

// replaySeq restores ref, applies ins[0..n-2] each followed by one machine
// step, applies ins[n-1] (the violating step's input), and runs the
// witness's recorded condition sweep at the resulting state. It returns the
// sweep's violation matching the witness's condition and colour, or nil.
func replaySeq(sys model.Perturbable, ref model.StateRef, ins []model.Input,
	w *Witness, replayed *obs.Counter) *separability.Violation {

	if replayed != nil {
		replayed.Inc()
	}
	sys.Restore(ref)
	for i := 0; i < len(ins)-1; i++ {
		sys.ApplyInput(ins[i])
		sys.Step()
	}
	if len(ins) > 0 {
		sys.ApplyInput(ins[len(ins)-1])
	}
	vs := separability.CheckStateSeeded(sys, model.Colour(w.Colour), w.CheckSeed,
		w.Trial, len(ins)-1, w.Sched)
	for i := range vs {
		if int(vs[i].Condition) == w.Condition && string(vs[i].Colour) == w.Colour {
			return &vs[i]
		}
	}
	return nil
}

// rawOrNull wraps encoded input bytes as a JSON value; nil (the nil input)
// becomes JSON null.
func rawOrNull(b []byte) json.RawMessage {
	if b == nil {
		return json.RawMessage("null")
	}
	return json.RawMessage(b)
}

func isNullRaw(r json.RawMessage) bool {
	return len(r) == 0 || string(r) == "null"
}
