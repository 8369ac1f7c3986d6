package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/verifysys"
	"repro/internal/witness"
)

// The built-in demo survives JSON encode → decode → FromSpec with an
// identical boot state.
func TestDemoSpecRoundTrip(t *testing.T) {
	spec := demoSpec(witness.SystemSpec{Kind: "verifysys"})
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back witness.SystemSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	var states [2][]byte
	for i, s := range []witness.SystemSpec{spec, back} {
		sys, err := verifysys.FromSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if states[i], err = sys.EncodeState(sys.Save()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Error("boot states differ after the round trip")
	}
}

// The package comment's multi-program form, flags first: two regimes
// joined by two channels boot and run, and the receiver takes every word
// the sender sends.
func TestRunFlagsFirst(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-steps", "20000", "-chan", "0:1", "-chan", "1:0",
		"testdata/sender.s", "testdata/receiver.s"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs.String())
	}
	var recvs int
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 5 && f[0] == "r1" {
			recvs, _ = strconv.Atoi(f[5])
		}
	}
	if recvs != 10 {
		t.Fatalf("receiver took %d words, want 10:\n%s", recvs, out.String())
	}
}

// Flags after the program files would be read as file names; seprun
// rejects them with a usage error instead.
func TestRunFlagsAfterFilesRejected(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-steps", "20000", "testdata/sender.s", "testdata/receiver.s",
		"-chan", "0:1", "-chan", "1:0"}, &out, &errs)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "flags go before the files") {
		t.Fatalf("stderr does not say where flags go:\n%s", errs.String())
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected run wrote to stdout:\n%s", out.String())
	}
}
