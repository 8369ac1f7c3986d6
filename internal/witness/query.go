package witness

import (
	"strconv"
	"strings"

	"repro/internal/separability"
)

// Query selects witnesses from a loaded store. The zero Query matches
// everything; each set field narrows the selection. This is the interface
// the triage layer (internal/staticflow/triage) uses to reconcile static
// flows with dynamic counterexamples.
type Query struct {
	// System, when non-nil, requires an exact SystemSpec match.
	System *SystemSpec
	// Conditions, when non-empty, requires the witness's condition to be
	// one of them.
	Conditions []separability.Condition
	// Colours, when non-empty, requires the witness's colour to be one of
	// them.
	Colours []string
	// Field, when non-empty, requires the Φ-encoding field at the
	// witness's recorded first difference (see Witness.Field) to match:
	// equal, or a sub-field of it ("ch" matches "ch:wp:rd").
	Field string
}

// Matches reports whether w satisfies every set constraint of q.
func (q Query) Matches(w *Witness) bool {
	if q.System != nil && !q.System.Equal(w.System) {
		return false
	}
	if len(q.Conditions) > 0 {
		ok := false
		for _, c := range q.Conditions {
			if int(c) == w.Condition {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(q.Colours) > 0 {
		ok := false
		for _, c := range q.Colours {
			if c == w.Colour {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.Field != "" {
		f := w.Field()
		if f != q.Field && !strings.HasPrefix(f, q.Field+":") {
			return false
		}
	}
	return true
}

// Find returns the witnesses matching q, in store (manifest) order.
func Find(ws []*Witness, q Query) []*Witness {
	var out []*Witness
	for _, w := range ws {
		if q.Matches(w) {
			out = append(out, w)
		}
	}
	return out
}

// Field extracts the name of the Φ-encoding field holding the first
// difference recorded in the witness Detail — "r5", "cc", "mem",
// "ch:wp:rd", "dev:tty0" — or "" when the detail does not carry a
// field-resolvable digest diff (NEXTOP and EXTRACT details, truncated
// windows).
//
// The Detail format is separability.diffDetail's: the byte offset of the
// first difference plus a quoted window of up to 24 bytes of context on
// each side. The field name is recovered by scanning the window back from
// the differing byte to the previous ';' field separator and forward to
// the '=' that ends the name.
func (w *Witness) Field() string {
	const marker = "first difference at byte "
	i := strings.Index(w.Detail, marker)
	if i < 0 {
		return ""
	}
	rest := w.Detail[i+len(marker):]
	colon := strings.Index(rest, ": ")
	if colon < 0 {
		return ""
	}
	offset, err := strconv.Atoi(rest[:colon])
	if err != nil {
		return ""
	}
	quoted, err := strconv.QuotedPrefix(rest[colon+2:])
	if err != nil {
		return ""
	}
	window, err := strconv.Unquote(quoted)
	if err != nil {
		return ""
	}
	// The window is detail[lo:hi] with lo = max(0, offset-24): the
	// differing byte sits at offset-lo.
	at := offset
	if at > 24 {
		at = 24
	}
	if at >= len(window) {
		return ""
	}
	start := strings.LastIndexByte(window[:at], ';') + 1
	if start == 0 && offset > 24 {
		return "" // window starts mid-field: the name is cut off
	}
	eq := strings.IndexByte(window[start:], '=')
	if eq < 0 {
		return ""
	}
	return window[start : start+eq]
}
