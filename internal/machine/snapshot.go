package machine

import (
	"bytes"
	"fmt"
)

// Snapshot captures the complete architectural state of a machine: CPU,
// MMU, RAM and every attached device. Two machines with equal snapshots
// and identical future stimuli behave identically.
type Snapshot struct {
	cpu
	RAM     []Word
	Devices [][]Word // one entry per attached device, in bus order
}

// Snapshot returns a deep copy of the machine's state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{cpu: m.cpu, RAM: append([]Word(nil), m.ram...)}
	for _, d := range m.devices {
		s.Devices = append(s.Devices, d.AppendState(nil))
	}
	return s
}

// CheckSnapshot reports an error when s does not fit this machine: when its
// RAM size or device count differs, or a device cannot restore its vector.
func (m *Machine) CheckSnapshot(s *Snapshot) error {
	if len(s.RAM) != m.ramWords {
		return fmt.Errorf("machine: snapshot RAM %d words, machine has %d", len(s.RAM), m.ramWords)
	}
	if len(s.Devices) != len(m.devices) {
		return fmt.Errorf("machine: snapshot has %d devices, machine has %d", len(s.Devices), len(m.devices))
	}
	for i, d := range m.devices {
		if err := d.CheckState(s.Devices[i]); err != nil {
			return err
		}
	}
	return nil
}

// Restore overwrites the machine's state from a snapshot that fits it (see
// CheckSnapshot); on an error it changes nothing.
func (m *Machine) Restore(s *Snapshot) error {
	if err := m.CheckSnapshot(s); err != nil {
		return err
	}
	m.cpu = s.cpu
	if m.delta != nil {
		// A full restore under an active delta must journal like any other
		// write, so DeltaRestore can still undo it: diff word-by-word
		// (typically few words differ between checker states) and touch
		// every device.
		for i, v := range s.RAM {
			if m.ram[i] != v {
				m.writeRAM(Word(i), v)
			}
		}
	} else {
		copy(m.ram, s.RAM)
	}
	for i, d := range m.devices {
		m.touchDevice(i)
		d.RestoreState(s.Devices[i])
	}
	return nil
}

// Equal reports whether two snapshots are identical: whether their wire
// encodings are (MarshalBinary cannot fail).
func (s *Snapshot) Equal(o *Snapshot) bool {
	sb, _ := s.MarshalBinary()
	ob, _ := o.MarshalBinary()
	return bytes.Equal(sb, ob)
}

func boolWord(b bool) Word {
	if b {
		return 1
	}
	return 0
}
