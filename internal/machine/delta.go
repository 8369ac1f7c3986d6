package machine

import "sync"

// Delta snapshots: O(dirty) checkpoints for the verification hot loop.
//
// A full machine.Snapshot deep-copies all of RAM and every device, so the
// separability checker's save/perturb/restore cycle costs O(RAM) per
// condition instance. A Delta instead records, from the moment it is taken,
// the *old* value of every word the machine subsequently writes (a
// first-touch undo log behind a write barrier) plus the pre-mutation state
// of every device subsequently touched. Rolling back then costs O(words
// actually written) — for a single instruction or a perturbation, a few
// dozen words instead of the machine's entire 60K-word RAM.
//
// The CPU and MMU block (the cpu value: registers, PSW, segment registers,
// abort latches, halt/wait/trap state — ~40 words) is copied whole at
// DeltaSnapshot time: the interpreter mutates registers on nearly every
// instruction, so logging them individually would cost more than copying
// them outright.
//
// Invariants:
//
//   - At most one Delta is active per machine; DeltaSnapshot returns nil
//     while one is active and the caller must fall back to full snapshots.
//   - While a Delta is active, EVERY mutation of RAM or device state flows
//     through the write barrier (writeRAM / touchDevice). The bulk
//     operations Restore, ClearRAM, LoadImage and Reset degrade to
//     word-by-word journaling while a delta is active, so correctness does
//     not depend on callers avoiding them.
//   - DeltaRestore returns the machine to the snapshot point and KEEPS the
//     delta active, so a checker can roll back many times per checkpoint.
//   - Like Snapshot/Restore, a Delta covers the modelled state only: the
//     cycle counter, the Fault cause and the tracer hooks are outside it.
//
// Deltas are pooled (sync.Pool): EndDelta recycles the undo-log and device
// buffers, so steady-state checking allocates almost nothing per state.
type Delta struct {
	owner *Machine

	// Eagerly saved CPU/MMU block.
	cpu cpu

	// First-touch RAM undo log: olds[i] is the value addrs[i] held at the
	// snapshot point (or at the most recent DeltaRestore). Each address
	// appears at most once per rollback generation.
	addrs []Word
	olds  []Word

	// Per-device copy-on-first-touch pre-mutation snapshots.
	devTouched []bool
	devOld     [][]Word
}

// DirtyWords returns how many distinct RAM words have been written since
// the snapshot point (or the last DeltaRestore). Exposed for tests and
// benchmarks measuring the O(dirty) claim.
func (d *Delta) DirtyWords() int { return len(d.addrs) }

var deltaPool = sync.Pool{New: func() any { return &Delta{} }}

// DeltaSnapshot begins delta tracking and returns the checkpoint handle.
// It returns nil if a delta is already active (no nesting); the caller
// must then fall back to the full Snapshot/Restore path.
func (m *Machine) DeltaSnapshot() *Delta {
	if m.delta != nil {
		return nil
	}
	if m.dirtyMark == nil {
		m.dirtyMark = make([]uint32, m.ramWords)
	}
	m.advanceEpoch()

	d := deltaPool.Get().(*Delta)
	d.owner = m
	d.addrs = d.addrs[:0]
	d.olds = d.olds[:0]
	n := len(m.devices)
	if cap(d.devTouched) < n {
		d.devTouched = make([]bool, n)
		d.devOld = make([][]Word, n)
	} else {
		d.devTouched = d.devTouched[:n]
		d.devOld = d.devOld[:n]
		for i := range d.devTouched {
			d.devTouched[i] = false
		}
	}
	d.cpu = m.cpu
	m.delta = d
	return d
}

// DeltaRestore rolls the machine back to d's snapshot point: logged RAM
// words get their old values back, touched devices are restored from their
// pre-mutation snapshots, and the eagerly saved CPU/MMU block is reloaded.
// The delta stays active, ready to absorb (and later undo) further writes.
func (m *Machine) DeltaRestore(d *Delta) {
	if m.delta != d || d == nil || d.owner != m {
		panic("machine: DeltaRestore of a delta that is not active on this machine")
	}
	// Each logged address appears once with its snapshot-point value, so
	// write-back order is irrelevant.
	for i, a := range d.addrs {
		m.ram[a] = d.olds[i]
	}
	d.addrs = d.addrs[:0]
	d.olds = d.olds[:0]
	m.advanceEpoch()
	m.cpu = d.cpu
	for i := range m.devices {
		if d.devTouched[i] {
			m.devices[i].RestoreState(d.devOld[i])
			d.devTouched[i] = false
		}
	}
}

// EndDelta stops tracking WITHOUT changing machine state (callers wanting
// the snapshot state back call DeltaRestore first) and recycles the
// delta's buffers.
func (m *Machine) EndDelta(d *Delta) {
	if d == nil {
		return
	}
	if m.delta == d {
		m.delta = nil
	}
	d.owner = nil
	deltaPool.Put(d)
}

// Inject delivers input words to an attached input-sink device through the
// write barrier, so that delta tracking sees the mutation. It reports
// whether the device was found and accepts input. External code must use
// this instead of calling InjectInput directly (lint-enforced: rule
// raw-device-access).
func (m *Machine) Inject(d Device, ws []Word) bool {
	for i, dd := range m.devices {
		if dd == d {
			sink, ok := dd.(InputSink)
			if !ok {
				return false
			}
			m.touchDevice(i)
			sink.InjectInput(ws)
			return true
		}
	}
	return false
}

// --- the write barrier ---

// writeRAM is the single store path for RAM: every write, from the
// interpreter, the bus, the trap sequence or the bulk loaders, lands here
// so an active delta can log the first-touch old value. Costs one nil
// check when no delta is active.
func (m *Machine) writeRAM(a, v Word) {
	if d := m.delta; d != nil && m.dirtyMark[a] != m.dirtyEpoch {
		m.dirtyMark[a] = m.dirtyEpoch
		d.addrs = append(d.addrs, a)
		d.olds = append(d.olds, m.ram[a])
	}
	m.ram[a] = v
}

// touchDevice marks device i as (potentially) mutated: an active delta
// captures its pre-mutation state on first touch.
func (m *Machine) touchDevice(i int) {
	if d := m.delta; d != nil && !d.devTouched[i] {
		d.devTouched[i] = true
		d.devOld[i] = m.devices[i].AppendState(d.devOld[i][:0])
	}
}

// advanceEpoch starts a new first-touch dedup generation for the dirty-word
// marks (O(1) instead of clearing the mark array). On the ~never wrap it
// clears the array to keep the "mark==epoch means already logged"
// invariant exact.
func (m *Machine) advanceEpoch() {
	m.dirtyEpoch++
	if m.dirtyEpoch == 0 {
		for i := range m.dirtyMark {
			m.dirtyMark[i] = 0
		}
		m.dirtyEpoch = 1
	}
}
