package separability

import (
	"fmt"

	"repro/internal/model"
)

// ToyVariant selects the behaviour of a ToySystem: one secure reference
// and a family of planted insecurities, each engineered to violate exactly
// one of the six conditions. The toy system is small enough (1024 states,
// 4 inputs) for the exhaustive sweep to constitute a real proof, which
// makes it the calibration standard for the checker itself.
type ToyVariant int

// Toy system variants.
const (
	// ToySecure is the reference: two users, each with a private register
	// and output latch, strictly alternating.
	ToySecure ToyVariant = iota
	// ToyCovertStore lets red park a bit in a shared cell which black's
	// operation then consumes — violates condition 1 for black.
	ToyCovertStore
	// ToyDirectWrite makes each operation also flip the other user's
	// register — violates condition 2.
	ToyDirectWrite
	// ToyInputCross adds red's input bit to black's register — violates
	// condition 4 (and 3 is preserved: the effect depends on the input,
	// not on hidden state).
	ToyInputCross
	// ToyInputSnoop scales black's input by red's register — violates
	// condition 3.
	ToyInputSnoop
	// ToyOutputLeak mixes red's register into black's extracted output —
	// violates condition 5.
	ToyOutputLeak
	// ToyNextOpLeak selects black's operation based on red's register —
	// violates condition 6.
	ToyNextOpLeak
)

// toyState is the complete state of the toy machine.
type toyState struct {
	cur    int    // whose operation runs next (0 = red, 1 = black)
	reg    [2]int // private registers, 2 bits each
	out    [2]int // output latches, 2 bits each
	shared int    // a kernel-internal cell, 1 bit; no user's abstract state
}

// toyInput is one stimulus: one input bit per user.
type toyInput struct{ bit [2]int }

// ToyColours are the two users of the toy system.
var ToyColours = []model.Colour{"red", "black"}

// ToySystem implements both model.Enumerable and model.Perturbable.
type ToySystem struct {
	Variant ToyVariant
	s       toyState
}

// NewToySystem creates a toy system in its initial state.
func NewToySystem(v ToyVariant) *ToySystem { return &ToySystem{Variant: v} }

// Clone implements model.Replicable: the whole machine state is one value.
func (t *ToySystem) Clone() model.SharedSystem {
	c := *t
	return &c
}

func colourIndex(c model.Colour) int {
	if c == "red" {
		return 0
	}
	return 1
}

// Colours implements model.SharedSystem.
func (t *ToySystem) Colours() []model.Colour {
	return append([]model.Colour(nil), ToyColours...)
}

// Save implements model.SharedSystem.
func (t *ToySystem) Save() model.StateRef { s := t.s; return &s }

// Restore implements model.SharedSystem.
func (t *ToySystem) Restore(r model.StateRef) { t.s = *r.(*toyState) }

// Colour implements model.SharedSystem.
func (t *ToySystem) Colour() model.Colour { return ToyColours[t.s.cur] }

// NextOp implements model.SharedSystem.
func (t *ToySystem) NextOp() model.OpID {
	if t.Variant == ToyNextOpLeak && t.s.cur == 1 {
		// Black's operation is chosen by red's register parity.
		if t.s.reg[0]&1 == 1 {
			return "dec"
		}
		return "inc"
	}
	return "inc"
}

// Step implements model.SharedSystem.
func (t *ToySystem) Step() {
	cur := t.s.cur
	delta := 1
	if t.NextOp() == "dec" {
		delta = 3 // -1 mod 4
	}
	t.s.reg[cur] = (t.s.reg[cur] + delta) & 3

	switch t.Variant {
	case ToyCovertStore:
		if cur == 0 {
			t.s.shared = t.s.reg[0] & 1 // red parks a bit
		} else {
			t.s.reg[1] = (t.s.reg[1] + t.s.shared) & 3 // black collects it
		}
	case ToyDirectWrite:
		t.s.reg[1-cur] ^= 1
	}

	t.s.out[cur] = t.s.reg[cur]
	t.s.cur = 1 - cur
}

// ApplyInput implements model.SharedSystem.
func (t *ToySystem) ApplyInput(in model.Input) {
	if in == nil {
		return
	}
	i := in.(toyInput)
	t.s.reg[0] = (t.s.reg[0] + i.bit[0]) & 3
	switch t.Variant {
	case ToyInputCross:
		t.s.reg[1] = (t.s.reg[1] + i.bit[1] + i.bit[0]) & 3
	case ToyInputSnoop:
		t.s.reg[1] = (t.s.reg[1] + i.bit[1]*(t.s.reg[0]&1)) & 3
	default:
		t.s.reg[1] = (t.s.reg[1] + i.bit[1]) & 3
	}
}

// CurrentOutput implements model.SharedSystem.
func (t *ToySystem) CurrentOutput() model.Output { s := t.s; return &s }

// Abstract implements model.SharedSystem: a user's abstract machine is its
// register and output latch.
func (t *ToySystem) Abstract(c model.Colour) string {
	i := colourIndex(c)
	return fmt.Sprintf("reg=%d;out=%d", t.s.reg[i], t.s.out[i])
}

// ExtractInput implements model.SharedSystem.
func (t *ToySystem) ExtractInput(c model.Colour, in model.Input) string {
	if in == nil {
		return ""
	}
	return fmt.Sprintf("bit=%d", in.(toyInput).bit[colourIndex(c)])
}

// ExtractOutput implements model.SharedSystem.
func (t *ToySystem) ExtractOutput(c model.Colour, o model.Output) string {
	s := o.(*toyState)
	i := colourIndex(c)
	if t.Variant == ToyOutputLeak && i == 1 {
		return fmt.Sprintf("out=%d", (s.out[1]+s.reg[0])&3)
	}
	return fmt.Sprintf("out=%d", s.out[i])
}

// EnumerateStates implements model.Enumerable: all 1024 states.
func (t *ToySystem) EnumerateStates(fn func(model.StateRef) bool) {
	for cur := 0; cur < 2; cur++ {
		for r0 := 0; r0 < 4; r0++ {
			for r1 := 0; r1 < 4; r1++ {
				for o0 := 0; o0 < 4; o0++ {
					for o1 := 0; o1 < 4; o1++ {
						for sh := 0; sh < 2; sh++ {
							s := toyState{cur: cur, reg: [2]int{r0, r1},
								out: [2]int{o0, o1}, shared: sh}
							if !fn(&s) {
								return
							}
						}
					}
				}
			}
		}
	}
}

// EnumerateInputs implements model.Enumerable: all four bit pairs.
func (t *ToySystem) EnumerateInputs(fn func(model.Input) bool) {
	for b0 := 0; b0 < 2; b0++ {
		for b1 := 0; b1 < 2; b1++ {
			if !fn(toyInput{bit: [2]int{b0, b1}}) {
				return
			}
		}
	}
}

// Randomize implements model.Perturbable.
func (t *ToySystem) Randomize(r model.Rand) {
	t.s = toyState{
		cur:    r.Intn(2),
		reg:    [2]int{r.Intn(4), r.Intn(4)},
		out:    [2]int{r.Intn(4), r.Intn(4)},
		shared: r.Intn(2),
	}
}

// PerturbOutside implements model.Perturbable: scramble the other user's
// register and latch plus the shared cell, preserving Φc and the schedule.
func (t *ToySystem) PerturbOutside(c model.Colour, r model.Rand) {
	o := 1 - colourIndex(c)
	t.s.reg[o] = r.Intn(4)
	t.s.out[o] = r.Intn(4)
	t.s.shared = r.Intn(2)
}

// RandomInput implements model.Perturbable.
func (t *ToySystem) RandomInput(r model.Rand) model.Input {
	return toyInput{bit: [2]int{r.Intn(2), r.Intn(2)}}
}

// RandomInputMatching implements model.Perturbable.
func (t *ToySystem) RandomInputMatching(c model.Colour, in model.Input, r model.Rand) model.Input {
	i := colourIndex(c)
	out := toyInput{bit: [2]int{r.Intn(2), r.Intn(2)}}
	if in != nil {
		out.bit[i] = in.(toyInput).bit[i]
	} else {
		out.bit[i] = 0
	}
	return out
}

// ToyVariantConditions maps each insecure variant to the condition it is
// engineered to violate; used by the calibration tests and experiment E8.
var ToyVariantConditions = map[ToyVariant]Condition{
	ToyCovertStore: Condition1,
	ToyDirectWrite: Condition2,
	ToyInputSnoop:  Condition3,
	ToyInputCross:  Condition4,
	ToyOutputLeak:  Condition5,
	ToyNextOpLeak:  Condition6,
}

// ToyVariantName names a variant for reports.
func ToyVariantName(v ToyVariant) string {
	switch v {
	case ToySecure:
		return "secure"
	case ToyCovertStore:
		return "covert-store"
	case ToyDirectWrite:
		return "direct-write"
	case ToyInputCross:
		return "input-cross"
	case ToyInputSnoop:
		return "input-snoop"
	case ToyOutputLeak:
		return "output-leak"
	case ToyNextOpLeak:
		return "nextop-leak"
	}
	return "unknown"
}
