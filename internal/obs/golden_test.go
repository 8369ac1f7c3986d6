package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// The two-regime demo from cmd/seprun, duplicated here so the golden trace
// is pinned against the same workload the CLI ships.
const demoSender = `
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	CMP #11, R2
	BEQ done
	TRAP #SWAP
	BR loop
done:
	TRAP #HALTME
`

const demoReceiver = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
	BR loop
yield:
	TRAP #SWAP
	BR loop
`

func buildDemo(t *testing.T) *kernel.Adapter {
	t.Helper()
	sys, err := verifysys.FromSpec(witness.SystemSpec{Kind: "verifysys",
		Regimes: []witness.RegimeSpec{
			{Name: "sender", Source: demoSender},
			{Name: "receiver", Source: demoReceiver},
		},
		Channels: []witness.ChannelSpec{{From: "sender", To: "receiver", Capacity: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDemoTraceGolden pins the event trace of the seprun demo: the exact
// opening sequence (JSONL-encoded) and the census of interesting events.
// The demo is deterministic, so any drift here is a real behaviour change.
func TestDemoTraceGolden(t *testing.T) {
	sys := buildDemo(t)
	ring := obs.NewRing(65536)
	sys.SetTracer(ring)
	sys.K.RunUntilIdle(50000)

	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}

	golden := []string{
		`{"cycle":4,"kind":"syscall-enter","regime":0,"trap":1,"name":"SEND"}`,
		`{"cycle":4,"kind":"chan-send","regime":0,"chan":0,"value":1,"occ":1,"name":"sender->receiver"}`,
		`{"cycle":4,"kind":"syscall-exit","regime":0,"trap":1,"r0":1,"name":"SEND"}`,
		`{"cycle":8,"kind":"syscall-enter","regime":0,"trap":0,"name":"SWAP"}`,
		`{"cycle":8,"kind":"ctx-switch","regime":1,"prev":0,"name":"receiver"}`,
		`{"cycle":8,"kind":"syscall-exit","regime":0,"trap":0,"r0":1,"name":"SWAP"}`,
		`{"cycle":11,"kind":"syscall-enter","regime":1,"trap":2,"name":"RECV"}`,
		`{"cycle":11,"kind":"chan-recv","regime":1,"chan":0,"value":1,"occ":0,"name":"sender->receiver"}`,
	}
	for i, want := range golden {
		got := string(obs.AppendJSON(nil, events[i]))
		if got != want {
			t.Errorf("event %d:\n  got  %s\n  want %s", i, got, want)
		}
	}

	counts := map[obs.EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	// The sender hands 1..10 across the channel, then halts; the receiver
	// takes each value. Every syscall pairs an enter with an exit.
	if counts[obs.EvChanSend] != 10 || counts[obs.EvChanRecv] != 10 {
		t.Errorf("channel census: %d sends, %d recvs, want 10/10",
			counts[obs.EvChanSend], counts[obs.EvChanRecv])
	}
	if counts[obs.EvRegimeHalt] != 1 {
		t.Errorf("halts = %d, want 1", counts[obs.EvRegimeHalt])
	}
	if counts[obs.EvSyscallEnter] != counts[obs.EvSyscallExit] {
		t.Errorf("unbalanced syscalls: %d enters, %d exits",
			counts[obs.EvSyscallEnter], counts[obs.EvSyscallExit])
	}
	// The boot hand-off happens before the tracer is attached, so the ring
	// sees exactly one fewer switch than the kernel counted.
	if got, want := counts[obs.EvContextSwitch], int(sys.K.Stats().Switches)-1; got != want {
		t.Errorf("ctx-switch events = %d, kernel counted %d post-boot", got, want)
	}

	// The same events must render as a loadable Chrome trace.
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, []string{"sender", "receiver"}, events); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// Syscall enter/exit pairs fold into single X events, so expect one
	// slice per enter plus the metadata, instants and B/E switch slices.
	var begins, ends, slices int
	for _, p := range parsed {
		switch p["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "X":
			slices++
		}
	}
	if begins != ends {
		t.Errorf("unbalanced duration events: %d B, %d E", begins, ends)
	}
	if slices != counts[obs.EvSyscallEnter] {
		t.Errorf("chrome trace has %d X slices for %d syscalls", slices, counts[obs.EvSyscallEnter])
	}
}

// TestTracerDoesNotPerturbDigests is the load-bearing guarantee of the
// whole subsystem: attaching a tracer must not change the modelled state.
// Two identical systems — one traced, one not — must agree on Φ^c and its
// digest for every colour at every sampled point, the digests must pass
// the equality-partition differential against the renderings (equal
// exactly when Φ^c is equal, per colour), and a verification run over the
// traced system must produce a byte-identical summary.
func TestTracerDoesNotPerturbDigests(t *testing.T) {
	bare := buildDemo(t)
	traced := buildDemo(t)
	ring := obs.NewRing(65536)
	traced.SetTracer(ring)

	type digestKey struct {
		c   model.Colour
		dig uint64
	}
	type phiKey struct {
		c   model.Colour
		phi string
	}
	byDigest := map[digestKey]string{}
	byPhi := map[phiKey]uint64{}
	for step := 0; step < 50; step++ {
		bare.K.Run(100)
		traced.K.Run(100)
		for _, c := range bare.Colours() {
			bd, td := bare.AbstractDigest(c), traced.AbstractDigest(c)
			if bd != td {
				t.Fatalf("step %d colour %v: digest %#x (bare) != %#x (traced)", step, c, bd, td)
			}
			ba, ta := bare.Abstract(c), traced.Abstract(c)
			if ba != ta {
				t.Fatalf("step %d colour %v: Φ^c diverged:\n%s\nvs\n%s", step, c, ba, ta)
			}
			if prev, ok := byDigest[digestKey{c, bd}]; ok && prev != ba {
				t.Fatalf("step %d colour %v: digest %#x stands for two renderings of Φ^c", step, c, bd)
			}
			if prev, ok := byPhi[phiKey{c, ba}]; ok && prev != bd {
				t.Fatalf("step %d colour %v: one rendering of Φ^c has digests %#x and %#x", step, c, prev, bd)
			}
			byDigest[digestKey{c, bd}] = ba
			byPhi[phiKey{c, ba}] = bd
		}
	}
	if ring.Len() == 0 {
		t.Fatal("traced system emitted no events — the comparison proved nothing")
	}

	// Verification outcome must be byte-identical with the tracer attached.
	vo := separability.Options{Trials: 4, StepsPerTrial: 50, Seed: 3, Workers: 1}
	bareRes := separability.CheckRandomized(buildDemo(t), vo)
	tsys := buildDemo(t)
	tsys.SetTracer(obs.NewRing(1024))
	tracedRes := separability.CheckRandomized(tsys, vo)
	if bareRes.Summary() != tracedRes.Summary() {
		t.Fatalf("tracer changed the verification outcome:\n  %s\n  %s",
			bareRes.Summary(), tracedRes.Summary())
	}
}

// TestTraceFormatsAgree encodes the demo trace both ways and checks the
// JSONL line count matches the ring (every event renders exactly once).
func TestTraceFormatsAgree(t *testing.T) {
	sys := buildDemo(t)
	ring := obs.NewRing(65536)
	sys.SetTracer(ring)
	sys.K.RunUntilIdle(50000)

	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	for _, e := range ring.Events() {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != ring.Len() {
		t.Fatalf("JSONL rendered %d lines for %d events", lines, ring.Len())
	}
}
