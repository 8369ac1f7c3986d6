package minisue

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// The encodings are tables built once at init; these are the renderings
// they must reproduce, written out as the format strings that define them.
func wantAbstract(s *state, i int) string {
	acc := s.save[i]
	if int(s.cur) == i {
		acc = s.acc
	}
	return fmt.Sprintf("acc=%d;pc=%d;out=%d;pend=%d", acc, s.pc[i], s.out[i], s.pend[i])
}

func wantNextOp(s *state) model.OpID {
	c := s.cur
	if s.pend[c] == 1 {
		return model.OpID(fmt.Sprintf("deliver:%s", Colours[c]))
	}
	names := [progLen]string{"inc", "out", "swap"}
	return model.OpID(fmt.Sprintf("%s:%s", names[s.pc[c]], Colours[c]))
}

// Every enumerated state (SharedCell enumerates both cell values), both
// colours and every input: the table-driven encodings equal the fmt
// renderings they replaced.
func TestEncodingsMatchFormats(t *testing.T) {
	m := New(SharedCell)
	var inputs []model.Input
	m.EnumerateInputs(func(in model.Input) bool { inputs = append(inputs, in); return true })
	n := 0
	m.EnumerateStates(func(r model.StateRef) bool {
		n++
		s := r.(*state)
		m.Restore(r)
		if got, want := m.NextOp(), wantNextOp(s); got != want {
			t.Fatalf("state %+v: NextOp %q, want %q", *s, got, want)
		}
		out := m.CurrentOutput()
		for i, c := range Colours {
			if got, want := m.Abstract(c), wantAbstract(s, i); got != want {
				t.Fatalf("state %+v colour %s: Abstract %q, want %q", *s, c, got, want)
			}
			if got, want := m.ExtractOutput(c, out), fmt.Sprintf("out=%d", s.out[i]); got != want {
				t.Fatalf("state %+v colour %s: ExtractOutput %q, want %q", *s, c, got, want)
			}
			for _, in := range inputs {
				want := fmt.Sprintf("irq=%d", in.(input).irq[i])
				if got := m.ExtractInput(c, in); got != want {
					t.Fatalf("input %+v colour %s: ExtractInput %q, want %q", in, c, got, want)
				}
			}
		}
		return true
	})
	if n != 2*73728 {
		t.Fatalf("enumerated %d states, want %d", n, 2*73728)
	}
}

// The encoders the exhaustive sweep calls per state allocate nothing.
func TestEncodingsAllocationFree(t *testing.T) {
	m := New(SharedCell)
	m.s = state{cur: 1, acc: 3, save: [2]uint8{2, 1}, pc: [2]uint8{1, 2}, out: [2]uint8{3, 1}, pend: [2]uint8{0, 1}, cell: 1}
	var in model.Input = input{irq: [2]int{1, 0}}
	out := m.CurrentOutput()
	var sink string
	var op model.OpID
	var o model.Output
	for name, fn := range map[string]func(){
		"Abstract":      func() { sink = m.Abstract("black") },
		"NextOp":        func() { op = m.NextOp() },
		"ExtractInput":  func() { sink = m.ExtractInput("red", in) },
		"ExtractOutput": func() { sink = m.ExtractOutput("black", out) },
		"CurrentOutput": func() { o = m.CurrentOutput() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	_, _, _ = sink, op, o
}
