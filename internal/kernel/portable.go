package kernel

import (
	"encoding/json"
	"fmt"
	"slices"

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

// DecodeState implements model.Portable. A well-formed snapshot that does
// not fit this adapter's machine (RAM size, device count, or a device state
// vector its device cannot restore) is an error, since Restore could not
// apply it.
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
	if err := a.K.m.CheckSnapshot(snap); err != nil {
		return nil, fmt.Errorf("kernel adapter: DecodeState: %w", err)
	}
	if err := a.K.checkData(snap.RAM); err != nil {
		return nil, fmt.Errorf("kernel adapter: DecodeState: %w", err)
	}
	return &adapterState{snap: snap, dead: data[0] == 1}, nil
}

// EncodeInput implements model.Portable: an InputVec serializes as a JSON
// object from device name to stimulus words, holding its non-nil entries;
// the nil input (a pure device tick) serializes as no bytes at all.
func (a *Adapter) EncodeInput(i model.Input) ([]byte, error) {
	if i == nil {
		return nil, nil
	}
	iv, ok := i.(InputVec)
	if !ok {
		return nil, fmt.Errorf("kernel adapter: EncodeInput: foreign Input %T", i)
	}
	devs := a.K.m.Devices()
	byName := map[string][]Word{}
	for j, ws := range iv {
		if ws != nil {
			byName[devs[j].Name()] = ws
		}
	}
	return json.Marshal(byName)
}

// DecodeInput implements model.Portable: each named stimulus goes to the
// bus position of the input sink of that name, and a name that is not one
// of this machine's input sinks is an error.
func (a *Adapter) DecodeInput(data []byte) (model.Input, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var byName map[string][]Word
	if err := json.Unmarshal(data, &byName); err != nil {
		return nil, fmt.Errorf("kernel adapter: DecodeInput: %w", err)
	}
	devs := a.K.m.Devices()
	iv := make(InputVec, len(devs))
	for name, ws := range byName {
		j := slices.IndexFunc(devs, func(d machine.Device) bool {
			_, sink := d.(machine.InputSink)
			return sink && d.Name() == name
		})
		if j < 0 {
			return nil, fmt.Errorf("kernel adapter: DecodeInput: %q is not an input sink of this machine", name)
		}
		// A present name is a stimulus, even an empty or null one.
		iv[j] = append([]Word{}, ws...)
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

// checkData reports an error when ram, a RAM image that fits k's machine,
// holds kernel data k never writes: a current-regime index with no regime,
// or a channel capacity other than the configured one.
func (k *Kernel) checkData(ram []Word) error {
	if cur := ram[KData+kdCurrent]; int(cur) >= len(k.cfg.Regimes) {
		return fmt.Errorf("kernel: current regime %d of %d", cur, len(k.cfg.Regimes))
	}
	for ci, off := range k.chanOff {
		if c := ram[off+chCap]; c != k.chanCap[ci] {
			return fmt.Errorf("kernel: channel %q capacity %d, configured %d", k.cfg.Channels[ci].Name, c, k.chanCap[ci])
		}
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
