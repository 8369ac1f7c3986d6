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
// The CPU and MMU block (registers, PSW, segment registers, abort latches,
// halt/wait/trap state — ~40 words) is saved eagerly at DeltaSnapshot time:
// the interpreter mutates registers on nearly every instruction, so logging
// them individually would cost more than copying them outright.
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
	regs     [8]Word
	altSP    Word
	psw      Word
	segBase  [NumSegments]Word
	segCtl   [NumSegments]Word
	mmuStat  Word
	mmuAddr  Word
	halted   bool
	waiting  bool
	trapCode Word

	// First-touch RAM undo log: olds[i] is the value addrs[i] held at the
	// snapshot point (or at the most recent DeltaRestore). Each address
	// appears at most once per rollback generation.
	addrs []Word
	olds  []Word

	// Per-device copy-on-first-touch pre-mutation snapshots.
	devTouched []bool
	devOld     [][]Word
	devVerAt   []uint64
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
		d.devVerAt = make([]uint64, n)
	} else {
		d.devTouched = d.devTouched[:n]
		d.devOld = d.devOld[:n]
		d.devVerAt = d.devVerAt[:n]
		for i := range d.devTouched {
			d.devTouched[i] = false
		}
	}
	d.saveCPU(m)
	m.delta = d
	m.deltaGen++
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
	d.restoreCPU(m)
	for i := range m.devices {
		if d.devTouched[i] {
			m.devices[i].RestoreState(d.devOld[i])
			// The device is back at its snapshot-point state, so its
			// version rewinds too — digest caches keyed on versions then
			// recognise checkpoint-time state as fresh again.
			m.devVer[i] = d.devVerAt[i]
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
		m.deltaGen++
	}
	d.owner = nil
	deltaPool.Put(d)
}

// DeltaActive reports whether a delta checkpoint is currently tracking
// writes.
func (m *Machine) DeltaActive() bool { return m.delta != nil }

// DeltaGen returns the delta generation counter: it advances whenever
// tracking starts or stops, so a cached value derived under one checkpoint
// can never be mistaken as fresh under another (writes between checkpoints
// are not journaled).
func (m *Machine) DeltaGen() uint64 { return m.deltaGen }

// DeltaAddrs returns the RAM addresses written since the snapshot point or
// the most recent DeltaRestore (each distinct address at least once; no
// order guarantee). The slice aliases the live log: callers must only read
// it, and only before the next machine mutation. Returns nil when no delta
// is active.
func (m *Machine) DeltaAddrs() []Word {
	if m.delta == nil {
		return nil
	}
	return m.delta.addrs
}

// DeviceVersion returns the mutation counter of attached device i. It
// advances on every (potentially) mutating access — register writes and
// reads (some devices have read side effects), ticks, acks, resets, input
// injection — and rewinds with DeltaRestore, so version equality implies
// state equality within one delta generation.
func (m *Machine) DeviceVersion(i int) uint64 { return m.devVer[i] }

// Inject delivers input words to an attached input-sink device through the
// write barrier, so that delta tracking and device versioning see the
// mutation. It reports whether the device was found and accepts input.
// External code must use this instead of calling InjectInput directly
// (lint-enforced: rule raw-device-access).
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

// touchDevice marks device i as (potentially) mutated: its version
// advances, and an active delta captures its pre-mutation state on first
// touch.
func (m *Machine) touchDevice(i int) {
	m.devVer[i]++
	if d := m.delta; d != nil && !d.devTouched[i] {
		d.devTouched[i] = true
		d.devOld[i] = append(d.devOld[i][:0], m.devices[i].SnapshotState()...)
		d.devVerAt[i] = m.devVer[i] - 1
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

func (d *Delta) saveCPU(m *Machine) {
	d.regs = m.regs
	d.altSP = m.altSP
	d.psw = m.psw
	d.segBase = m.mmu.Base
	d.segCtl = m.mmu.Ctl
	d.mmuStat = m.mmu.AbortReason
	d.mmuAddr = m.mmu.AbortVaddr
	d.halted = m.halted
	d.waiting = m.waiting
	d.trapCode = m.trapCode
}

func (d *Delta) restoreCPU(m *Machine) {
	m.regs = d.regs
	m.altSP = d.altSP
	m.psw = d.psw
	m.mmu.Base = d.segBase
	m.mmu.Ctl = d.segCtl
	m.mmu.AbortReason = d.mmuStat
	m.mmu.AbortVaddr = d.mmuAddr
	m.halted = d.halted
	m.waiting = d.waiting
	m.trapCode = d.trapCode
}
