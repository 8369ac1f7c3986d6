package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReadJSONLRoundTripsDemoTrace is the decoder's load-bearing golden
// test: record the deterministic seprun demo through a JSONL sink, decode
// the bytes, and demand (a) the decoded events equal the ring's events and
// (b) re-encoding reproduces the file byte for byte.
func TestReadJSONLRoundTripsDemoTrace(t *testing.T) {
	sys := buildDemo(t)
	ring := obs.NewRing(65536)
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	sys.SetTracer(obs.TracerFunc(func(e obs.Event) {
		ring.Emit(e)
		j.Emit(e)
	}))
	sys.K.RunUntilIdle(50000)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	decoded, err := obs.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := ring.Events()
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d events, recorded %d", len(decoded), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(decoded[i], want[i]) {
			t.Fatalf("event %d decoded as %+v, recorded %+v", i, decoded[i], want[i])
		}
	}

	var re bytes.Buffer
	if err := obs.WriteJSONL(&re, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), buf.Bytes()) {
		t.Fatal("decode → re-encode is not byte-identical to the recorded stream")
	}
}

func TestParseJSONLineErrors(t *testing.T) {
	bad := []struct{ name, line string }{
		{"empty object", `{}`},
		{"missing kind", `{"cycle":1,"regime":0}`},
		{"missing cycle", `{"kind":"fault","regime":0}`},
		{"missing regime", `{"cycle":1,"kind":"fault"}`},
		{"unknown kind", `{"cycle":1,"kind":"warp","regime":0}`},
		{"unknown key", `{"cycle":1,"kind":"fault","regime":0,"color":"red"}`},
		{"not json", `cycle 4 fault`},
		{"two objects", `{"cycle":1,"kind":"fault","regime":0}{"cycle":2,"kind":"fault","regime":0}`},
	}
	for _, tc := range bad {
		if _, err := obs.ParseJSONLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.line)
		}
	}
}

func TestReadJSONLSkipsBlankLinesAndNumbersErrors(t *testing.T) {
	in := `{"cycle":1,"kind":"halt","regime":0,"name":"red"}

{"cycle":2,"kind":"ctx-switch","regime":-1,"prev":0}
`
	evs, err := obs.ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != obs.EvRegimeHalt || evs[1].Prev != 0 || evs[1].Regime != -1 {
		t.Fatalf("decoded %+v", evs)
	}

	_, err = obs.ReadJSONL(strings.NewReader(in + "garbage\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v does not carry the failing line number", err)
	}
}

// FuzzReadJSONL drives the decoder with arbitrary bytes. Accepted input
// must canonicalize in one decode: re-encoding the decoded events yields a
// stream the decoder accepts again and re-encodes to the same bytes (the
// fixed-point contract ReadJSONL documents).
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"cycle":4,"kind":"syscall-enter","regime":0,"trap":1,"name":"SEND"}`))
	f.Add([]byte(`{"cycle":4,"kind":"chan-send","regime":0,"chan":0,"value":1,"occ":1,"name":"a->b"}`))
	f.Add([]byte(`{"cycle":8,"kind":"ctx-switch","regime":1,"prev":0,"name":"receiver"}`))
	f.Add([]byte(`{"cycle":9,"kind":"syscall-exit","regime":1,"trap":2,"r0":0,"name":"RECV"}`))
	f.Add([]byte(`{"cycle":12,"kind":"irq-deliver","regime":0,"irq":3}`))
	f.Add([]byte(`{"cycle":13,"kind":"fault","regime":1,"name":"mmu","detail":"write to 0x7"}` + "\n" +
		`{"cycle":14,"kind":"halt","regime":0}`))
	f.Add([]byte("\n\n{\"cycle\":1,\"kind\":\"irq-raise\",\"regime\":-1,\"irq\":0,\"name\":\"clk\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := obs.WriteJSONL(&once, evs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		evs2, err := obs.ReadJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("canonical stream rejected: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := obs.WriteJSONL(&twice, evs2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("canonicalization is not a fixed point:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
