package kernel

import (
	"encoding/json"
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
)

// Portable codec for the adapter: the witness subsystem persists a
// counterexample's pre-state and input sequence through these methods and
// re-materializes them in a later process against a freshly built system
// with the same configuration.

// EncodeState implements model.Portable. The encoding is one kernel-death
// flag byte followed by the snapshot's self-describing wire form.
func (a *Adapter) EncodeState(ref model.StateRef) ([]byte, error) {
	st, ok := ref.(*adapterState)
	if !ok {
		return nil, fmt.Errorf("kernel adapter: EncodeState: foreign StateRef %T", ref)
	}
	sb, err := st.snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 1+len(sb))
	out = append(out, boolByte(st.dead))
	return append(out, sb...), nil
}

// DecodeState implements model.Portable. The returned StateRef is only
// usable on an adapter whose machine has the same RAM size and device
// complement as the encoder's (Restore re-validates both).
func (a *Adapter) DecodeState(data []byte) (model.StateRef, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("kernel adapter: DecodeState: empty input")
	}
	if data[0] > 1 {
		return nil, fmt.Errorf("kernel adapter: DecodeState: bad death flag %#x", data[0])
	}
	snap, err := machine.DecodeSnapshot(data[1:])
	if err != nil {
		return nil, err
	}
	return &adapterState{snap: snap, dead: data[0] == 1}, nil
}

// EncodeInput implements model.Portable: an InputVec serializes as JSON
// (device name -> stimulus words); the nil input (a pure device tick)
// serializes as no bytes at all.
func (a *Adapter) EncodeInput(i model.Input) ([]byte, error) {
	if i == nil {
		return nil, nil
	}
	iv, ok := i.(InputVec)
	if !ok {
		return nil, fmt.Errorf("kernel adapter: EncodeInput: foreign Input %T", i)
	}
	return json.Marshal(iv)
}

// DecodeInput implements model.Portable.
func (a *Adapter) DecodeInput(data []byte) (model.Input, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var iv InputVec
	if err := json.Unmarshal(data, &iv); err != nil {
		return nil, fmt.Errorf("kernel adapter: DecodeInput: %w", err)
	}
	return iv, nil
}

// SetTracer attaches t to both the kernel (service/fault/switch events) and
// the underlying machine (device events), or detaches both
// when t is nil. Tracing is host-side observation only; it never changes
// what the system computes.
func (a *Adapter) SetTracer(t obs.Tracer) {
	a.K.SetTracer(t)
	a.K.Machine().SetEventTracer(t)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
