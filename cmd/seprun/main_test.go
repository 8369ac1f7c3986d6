package main

import (
	"bytes"
	"encoding/json"
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
