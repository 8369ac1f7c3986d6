package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// The quickstart pair, honest and with RegisterLeak, survives JSON encode →
// decode → FromSpec with an identical boot state, and keeps the verdicts
// the example prints.
func TestSpecRoundTripAndVerdicts(t *testing.T) {
	for _, leak := range []string{"", "RegisterLeak"} {
		data, err := json.Marshal(spec(leak))
		if err != nil {
			t.Fatal(err)
		}
		var back witness.SystemSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		var states [2][]byte
		for i, s := range []witness.SystemSpec{spec(leak), back} {
			sys, err := verifysys.FromSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			if states[i], err = sys.EncodeState(sys.Save()); err != nil {
				t.Fatal(err)
			}
			res := separability.CheckRandomized(sys, separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 1})
			if res.Passed() != (leak == "") {
				t.Errorf("leak %q: %s", leak, res.Summary())
			}
		}
		if !bytes.Equal(states[0], states[1]) {
			t.Errorf("leak %q: boot states differ after the round trip", leak)
		}
	}
}
