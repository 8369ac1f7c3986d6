package kernel

import (
	"repro/internal/machine"
	"repro/internal/model"
)

// Incremental Φ digests: per-regime caching of AbstractDigest's
// fingerprint, driven by the machine's delta write-barrier, so that during
// a checkpointed condition sweep most AbstractDigest calls cost O(words
// written since the checkpoint) instead of re-gathering and fingerprinting
// the regime's whole abstraction.
//
// The idea: each regime's Φ^c is a pure function of (a) a fixed set of RAM
// words — its partition, its save area, the channel areas it can see —
// (b) its owned devices' state, and (c), only while the regime is current
// and in user mode, the live register file and condition codes. While a
// machine delta is active, every RAM write is journaled and every device
// mutation bumps that device's version counter, so a digest computed
// earlier in the same delta generation is provably still fresh when:
//
//   - no journaled write since the checkpoint lands in the regime's RAM
//     footprint (a per-word bitmask, one bit per regime),
//   - every owned device's version counter is unchanged (versions rewind
//     on rollback, so checkpoint-time entries revalidate), and
//   - the live-CPU contribution is unchanged: the regime's "live" status
//     (current && user mode) matches, and, when live, the stored register
//     file and condition codes compare equal. Registers are compared
//     rather than write-barriered because the interpreter mutates them on
//     nearly every instruction.
//
// Entries are stored only at "pristine" moments — when the undo log is
// empty, i.e. right at the checkpoint or right after a rollback, which by
// construction denote the identical RAM/device state. Validity then only
// requires scanning the full (first-touch-deduped) journal: any footprint
// word written since the checkpoint invalidates, which over-approximates
// staleness but never under-approximates it. The fingerprint of a fresh
// gather (gatherPhi) remains the oracle: cache hit or miss, the value
// returned is always exactly what a fresh gather would fingerprint, so
// proof soundness is untouched — see the differential tests in
// delta_test.go.
type phiCache struct {
	// mask[a] has bit ri set when RAM word a is in regime ri's Φ read set.
	// Over-marking is safe (spurious recomputes); under-marking is not.
	mask    []uint32
	ridx    map[model.Colour]int
	owned   [][]int // regime index -> owned devices' machine bus indices
	entries []phiEntry
}

type phiEntry struct {
	valid  bool
	gen    uint64 // machine delta generation the entry was computed under
	digest uint64
	live   bool // regime held the CPU in user mode at store time
	regs   [8]Word
	cc     Word
	devVer []uint64
}

const ccMask = machine.FlagN | machine.FlagZ | machine.FlagV | machine.FlagC

// ensurePhiCache builds the footprint mask once per adapter (post-boot, so
// channel areas are laid out). More than 32 regimes would overflow the
// per-word bitmask; such systems simply run uncached.
func (a *Adapter) ensurePhiCache() {
	if a.phi != nil {
		return
	}
	k := a.K
	if len(k.cfg.Regimes) > 32 {
		a.phi = &phiCache{}
		return
	}
	pc := &phiCache{
		mask:    make([]uint32, k.m.RAMWords()),
		ridx:    map[model.Colour]int{},
		owned:   make([][]int, len(k.cfg.Regimes)),
		entries: make([]phiEntry, len(k.cfg.Regimes)),
	}
	mark := func(base, size Word, bits uint32) {
		for off := Word(0); off < size; off++ {
			if w := int(base + off); w < len(pc.mask) {
				pc.mask[w] |= bits
			}
		}
	}
	for ri, r := range k.cfg.Regimes {
		pc.ridx[model.Colour(r.Name)] = ri
		bit := uint32(1) << ri
		mark(r.Base, r.Size, bit)
		mark(saveBase(ri), saveStride, bit)
		for _, d := range r.Devices {
			for mi, dd := range k.m.Devices() {
				if dd == d {
					pc.owned[ri] = append(pc.owned[ri], mi)
				}
			}
		}
		pc.entries[ri].devVer = make([]uint64, len(pc.owned[ri]))
	}
	for ci, ch := range k.cfg.Channels {
		var bits uint32
		if fi, ok := pc.ridx[model.Colour(ch.From)]; ok {
			bits |= 1 << fi
		}
		if ti, ok := pc.ridx[model.Colour(ch.To)]; ok {
			bits |= 1 << ti
		}
		// Under the ChannelAlias leak chanBase maps every channel onto
		// channel 0's area, so that area accumulates every aliased
		// channel's From/To bits — conservative and correct.
		capi := ci
		if k.cfg.Leaks.ChannelAlias && ci > 0 {
			capi = 0
		}
		mark(k.chanBase(ci), 8+2*k.chanCap[capi], bits)
	}
	a.phi = pc
}

// cachedDigest returns regime c's cached Φ digest when provably fresh.
func (a *Adapter) cachedDigest(c model.Colour) (uint64, bool) {
	pc := a.phi
	m := a.K.m
	if pc == nil || pc.mask == nil || !m.DeltaActive() {
		return 0, false
	}
	ri, ok := pc.ridx[c]
	if !ok {
		return 0, false
	}
	e := &pc.entries[ri]
	if !e.valid || e.gen != m.DeltaGen() {
		return 0, false
	}
	bit := uint32(1) << ri
	for _, addr := range m.DeltaAddrs() {
		if pc.mask[addr]&bit != 0 {
			return 0, false
		}
	}
	for di, mi := range pc.owned[ri] {
		if m.DeviceVersion(mi) != e.devVer[di] {
			return 0, false
		}
	}
	live := a.K.current() == ri && machine.IsUser(m.PSW())
	if live != e.live {
		return 0, false
	}
	if live {
		for r := 0; r < 8; r++ {
			if m.Reg(r) != e.regs[r] {
				return 0, false
			}
		}
		if m.PSW()&ccMask != e.cc {
			return 0, false
		}
	}
	return e.digest, true
}

// storeDigest records a freshly computed digest, but only at pristine
// moments (empty undo log): all such moments within one delta generation
// share the identical RAM/device state, which is what makes the full-log
// freshness scan in cachedDigest sound.
func (a *Adapter) storeDigest(c model.Colour, dig uint64) {
	pc := a.phi
	m := a.K.m
	if pc == nil || pc.mask == nil || !m.DeltaActive() || len(m.DeltaAddrs()) != 0 {
		return
	}
	ri, ok := pc.ridx[c]
	if !ok {
		return
	}
	e := &pc.entries[ri]
	e.valid = true
	e.gen = m.DeltaGen()
	e.digest = dig
	e.live = a.K.current() == ri && machine.IsUser(m.PSW())
	if e.live {
		for r := 0; r < 8; r++ {
			e.regs[r] = m.Reg(r)
		}
		e.cc = m.PSW() & ccMask
	}
	for di, mi := range pc.owned[ri] {
		e.devVer[di] = m.DeviceVersion(mi)
	}
}

// adapterCheckpoint is the model.Checkpoint payload: the machine's delta
// plus the kernel-level dead flag — exactly the components adapterState
// restores on the full-snapshot path.
type adapterCheckpoint struct {
	delta *machine.Delta
	dead  bool
}

// Checkpoint implements model.Checkpointer. Returns nil (caller falls back
// to Save/Restore) when a delta is already active on the machine.
func (a *Adapter) Checkpoint() model.Checkpoint {
	d := a.K.m.DeltaSnapshot()
	if d == nil {
		return nil
	}
	a.ensurePhiCache()
	return &adapterCheckpoint{delta: d, dead: a.K.dead}
}

// Rollback implements model.Checkpointer.
func (a *Adapter) Rollback(cp model.Checkpoint) {
	st := cp.(*adapterCheckpoint)
	a.K.m.DeltaRestore(st.delta)
	a.K.dead = st.dead
}

// Release implements model.Checkpointer: roll back, then stop tracking.
func (a *Adapter) Release(cp model.Checkpoint) {
	st := cp.(*adapterCheckpoint)
	a.K.m.DeltaRestore(st.delta)
	a.K.m.EndDelta(st.delta)
	a.K.dead = st.dead
}
