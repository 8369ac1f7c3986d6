// Package analyze turns recorded obs event traces into evidence.
//
// Rushby's criterion is observational: the kernel is secure when each
// regime's view of the shared machine is indistinguishable from a private
// machine. The traces internal/obs records are therefore not just debug
// output — they are checkable artifacts. This package provides the three
// analyses cmd/septrace exposes:
//
//   - Projection: a trace-level Φ^c. Project maps a full event stream to
//     the subsequence one regime could itself observe (its system calls,
//     channel operations, interrupt deliveries, fault/halt), with event
//     times renormalized to the regime's own virtual clock so that two
//     runs scheduling the regime differently but feeding it identical
//     observations project identically. Each projection carries a
//     canonical FNV-1a digest of its JSONL rendering.
//
//   - Diffing: Diff/DiffAll compare per-regime projections between two
//     traces — the same workload under distsys's Physical and KernelHosted
//     deployments, or an honest and a suspect kernel build. Identical
//     projections are a finer-grained indistinguishability check than the
//     E7 per-port comparison; a divergence yields a structured
//     first-divergence report instead of a bare boolean.
//
//   - Covert measurement (covert.go): gaps between a regime's scheduling
//     turns and channel occupancy series, fed into internal/covert's
//     capacity arithmetic to measure real covert-channel bandwidth from
//     traces alone.
//
// The package deliberately imports only the obs core and internal/covert
// (enforced by the repository linter): trace analysis lives entirely
// outside the modelled system and can never perturb it.
package analyze

import (
	"fmt"
	"hash/fnv"

	"repro/internal/obs"
)

// observable reports whether a regime could itself observe event e — the
// trace-level analogue of "in its own abstract state". Context switches,
// interrupt fielding (kernel-internal routing) and device-side interrupt
// raises are excluded: a regime on a private machine would see none of
// them, only the deliveries, syscall results and channel data that reach
// it.
func observable(e obs.Event, regime int) bool {
	if e.Regime != regime {
		return false
	}
	switch e.Kind {
	case obs.EvSyscallEnter, obs.EvSyscallExit,
		obs.EvChanSend, obs.EvChanRecv,
		obs.EvIRQDeliver, obs.EvFault, obs.EvRegimeHalt:
		return true
	}
	return false
}

// Projection is one regime's view of a trace: the events it could observe,
// restamped onto its own virtual clock, plus a canonical digest.
type Projection struct {
	Regime int
	// Events hold the observable subsequence. Cycle carries virtual time:
	// machine cycles accumulated while this regime held the CPU (traces
	// with context-switch events), or the event ordinal (traces without,
	// e.g. distsys fabric traces, whose components have no wall clock).
	Events []obs.Event
	// Digest is the FNV-1a 64-bit hash of the projection's canonical JSONL
	// rendering; equal digests (plus equal lengths) mean equal views.
	Digest uint64
}

// Project computes regime's projection of a trace.
//
// Virtual-clock renormalization: while the trace contains context-switch
// events, time advances for a regime only while it runs. An event observed
// at machine cycle t during a turn that began at cycle t0, with v cycles
// accumulated over earlier turns, is restamped to v + (t - t0); events
// observed while switched out (e.g. the syscall-exit of the SWAP that
// suspended the regime) carry the virtual time at which its last turn
// ended. Two runs that schedule the regime differently — preempt it more
// often, delay its turns — but hand it the same observations therefore
// project identically, which is exactly the indistinguishability claim.
//
// Traces with no context-switch events at all (distsys fabric traces) have
// no shared clock worth renormalizing; each observable event is restamped
// to its ordinal in the projection.
func Project(events []obs.Event, regime int) Projection {
	p := Projection{Regime: regime}
	hasSwitches := false
	for _, e := range events {
		if e.Kind == obs.EvContextSwitch {
			hasSwitches = true
			break
		}
	}
	var (
		vclock    uint64 // cycles accumulated over completed turns
		turnStart uint64 // wall cycle the current turn began
		running   bool
	)
	for _, e := range events {
		if e.Kind == obs.EvContextSwitch {
			switch {
			case e.Regime == regime && !running:
				running, turnStart = true, e.Cycle
			case e.Regime != regime && running:
				vclock += e.Cycle - turnStart
				running = false
			}
			continue
		}
		if !observable(e, regime) {
			continue
		}
		pe := e
		if hasSwitches {
			pe.Cycle = vclock
			if running {
				pe.Cycle = vclock + (e.Cycle - turnStart)
			}
		} else {
			pe.Cycle = uint64(len(p.Events))
		}
		p.Events = append(p.Events, pe)
	}
	p.Digest = digest(p.Events)
	return p
}

// Regimes returns the sorted set of regime indexes (>= 0) appearing in a
// trace, including regimes that only ever appear in context switches.
func Regimes(events []obs.Event) []int {
	seen := map[int]bool{}
	max := -1
	for _, e := range events {
		if e.Regime >= 0 {
			seen[e.Regime] = true
			if e.Regime > max {
				max = e.Regime
			}
		}
	}
	var out []int
	for i := 0; i <= max; i++ {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}

// digest hashes a projected event sequence: FNV-1a 64 over the canonical
// JSONL rendering, one line per event.
func digest(events []obs.Event) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, e := range events {
		buf = obs.AppendJSON(buf[:0], e)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return h.Sum64()
}

// DiffResult reports the comparison of one regime's projections across two
// traces. When the views diverge, DivergeAt is the index of the first
// differing event and A/B carry its canonical rendering from each side ("",
// when that side's view ended early).
type DiffResult struct {
	Regime           int
	Equal            bool
	ALen, BLen       int
	ADigest, BDigest uint64
	DivergeAt        int
	A, B             string
}

// String renders the verdict as cmd/septrace prints it.
func (d DiffResult) String() string {
	if d.Equal {
		return fmt.Sprintf("regime %d: IDENTICAL (%d events, digest %016x)",
			d.Regime, d.ALen, d.ADigest)
	}
	s := fmt.Sprintf("regime %d: DIVERGED at event %d (a: %d events %016x, b: %d events %016x)",
		d.Regime, d.DivergeAt, d.ALen, d.ADigest, d.BLen, d.BDigest)
	a, b := d.A, d.B
	if a == "" {
		a = "<view ended>"
	}
	if b == "" {
		b = "<view ended>"
	}
	return s + fmt.Sprintf("\n  a[%d]: %s\n  b[%d]: %s", d.DivergeAt, a, d.DivergeAt, b)
}

// DiffRecord is the stable JSON codec form of a DiffResult, for
// machine-readable drift reports (`septrace diff -format json`, the
// sepwatch drift ledger). Digests are rendered as 16-digit hex so the JSON
// round-trips without precision loss; DivergeAt is -1 for identical views.
type DiffRecord struct {
	Regime    int    `json:"regime"`
	Equal     bool   `json:"equal"`
	ALen      int    `json:"aLen"`
	BLen      int    `json:"bLen"`
	ADigest   string `json:"aDigest"`
	BDigest   string `json:"bDigest"`
	DivergeAt int    `json:"divergeAt"`
	A         string `json:"a,omitempty"`
	B         string `json:"b,omitempty"`
}

// Record converts the result to its codec form.
func (d DiffResult) Record() DiffRecord {
	return DiffRecord{
		Regime: d.Regime, Equal: d.Equal,
		ALen: d.ALen, BLen: d.BLen,
		ADigest: fmt.Sprintf("%016x", d.ADigest), BDigest: fmt.Sprintf("%016x", d.BDigest),
		DivergeAt: d.DivergeAt, A: d.A, B: d.B,
	}
}

// Records converts a DiffAll result set to codec form.
func Records(ds []DiffResult) []DiffRecord {
	out := make([]DiffRecord, len(ds))
	for i, d := range ds {
		out[i] = d.Record()
	}
	return out
}

// Diff compares two projections of the same regime.
func Diff(a, b Projection) DiffResult {
	d := DiffResult{
		Regime: a.Regime,
		ALen:   len(a.Events), BLen: len(b.Events),
		ADigest: a.Digest, BDigest: b.Digest,
		DivergeAt: -1,
	}
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	var abuf, bbuf []byte
	for i := 0; i < n; i++ {
		abuf = obs.AppendJSON(abuf[:0], a.Events[i])
		bbuf = obs.AppendJSON(bbuf[:0], b.Events[i])
		if string(abuf) != string(bbuf) {
			d.DivergeAt, d.A, d.B = i, string(abuf), string(bbuf)
			return d
		}
	}
	if len(a.Events) != len(b.Events) {
		d.DivergeAt = n
		if n < len(a.Events) {
			d.A = string(obs.AppendJSON(nil, a.Events[n]))
		}
		if n < len(b.Events) {
			d.B = string(obs.AppendJSON(nil, b.Events[n]))
		}
		return d
	}
	d.Equal = true
	return d
}

// DiffAll projects and diffs every regime appearing in either trace, in
// regime order.
func DiffAll(a, b []obs.Event) []DiffResult {
	seen := map[int]bool{}
	var regimes []int
	for _, r := range append(Regimes(a), Regimes(b)...) {
		if !seen[r] {
			seen[r] = true
			regimes = append(regimes, r)
		}
	}
	// The union preserves ascending order except for b-only regimes beyond
	// a's maximum; re-sort cheaply.
	for i := 1; i < len(regimes); i++ {
		for j := i; j > 0 && regimes[j] < regimes[j-1]; j-- {
			regimes[j], regimes[j-1] = regimes[j-1], regimes[j]
		}
	}
	out := make([]DiffResult, 0, len(regimes))
	for _, r := range regimes {
		out = append(out, Diff(Project(a, r), Project(b, r)))
	}
	return out
}
