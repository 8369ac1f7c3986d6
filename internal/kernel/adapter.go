package kernel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/model"
)

// RegimePSW returns the user-visible PSW bits (condition codes) of regime
// i: live when the regime holds the CPU, from the save area otherwise.
func (k *Kernel) RegimePSW(i int) Word {
	if i == k.current() && machine.IsUser(k.m.PSW()) {
		return k.m.PSW() & (machine.FlagN | machine.FlagZ | machine.FlagV | machine.FlagC)
	}
	return k.m.ReadPhys(saveBase(i)+savePSW) &
		(machine.FlagN | machine.FlagZ | machine.FlagV | machine.FlagC)
}

// InputVec is one external stimulus: words delivered to named input-sink
// devices at this time step.
type InputVec map[string][]Word

// OutputVec is the observable output state: the cumulative output of every
// output-source device.
type OutputVec map[string][]Word

// Adapter presents a booted SUE-Go system as the shared system of the
// paper's Appendix model, so that package separability can check the six
// conditions against it.
//
// The mapping is:
//
//	S       = machine.Snapshot (CPU + MMU + RAM + devices) plus kernel death
//	OPS     = {user instruction, kernel service, interrupt fielding,
//	           virtual interrupt delivery, idle} — one Kernel.StepCPU each
//	INPUT   = inject stimulus words into input devices, then tick devices
//	OUTPUT  = cumulative device outputs (a pure function of S)
//	COLOUR  = owner of the interrupt about to be fielded, else the current
//	          regime when in user mode, else the kernel pseudo-colour
//	EXTRACT = the device entries owned by a colour
//	Φ^c     = partition RAM + register file + run/pending/IPL words +
//	          owned-device state + the regime's view of each channel
type Adapter struct {
	K *Kernel

	colours []model.Colour
	// ownedSinks/ownedSources: device name -> owning colour.
	owner map[string]model.Colour

	// PerturbWords bounds how many words each perturbation touches.
	PerturbWords int

	// phi caches per-regime Φ digests during delta checkpoints; built
	// lazily on first Checkpoint (see phicache.go).
	phi *phiCache
	// phiBuf is the scratch buffer Φ^c is rendered into (see renderPhi).
	// NewAdapter leaves it nil, so a clone never shares its original's.
	phiBuf []byte
}

// KernelColour is returned by Colour for states where the next operation
// is the kernel's own (the idle loop) rather than any user's.
const KernelColour model.Colour = "_kernel"

// NewAdapter wraps a booted kernel.
func NewAdapter(k *Kernel) *Adapter {
	a := &Adapter{K: k, owner: map[string]model.Colour{}, PerturbWords: 8}
	for _, r := range k.cfg.Regimes {
		a.colours = append(a.colours, model.Colour(r.Name))
		for _, d := range r.Devices {
			a.owner[d.Name()] = model.Colour(r.Name)
		}
	}
	return a
}

// Colours implements model.SharedSystem.
func (a *Adapter) Colours() []model.Colour { return append([]model.Colour(nil), a.colours...) }

// adapterState is the StateRef implementation.
type adapterState struct {
	snap *machine.Snapshot
	dead bool
}

// Save implements model.SharedSystem.
func (a *Adapter) Save() model.StateRef {
	return &adapterState{snap: a.K.m.Snapshot(), dead: a.K.dead}
}

// Restore implements model.SharedSystem.
func (a *Adapter) Restore(s model.StateRef) {
	st := s.(*adapterState)
	if err := a.K.m.Restore(st.snap); err != nil {
		panic(fmt.Sprintf("kernel adapter: restore: %v", err))
	}
	a.K.dead = st.dead
}

// Colour implements model.SharedSystem: the colour on whose behalf the
// next operation will execute.
func (a *Adapter) Colour() model.Colour {
	k := a.K
	if k.dead || k.m.Halted() {
		return KernelColour
	}
	if k.cfg.FixedSlice > 0 && k.m.ReadPhys(KData+kdSliceLeft) == 0 {
		// The next operation is the slice-boundary rotation: pure kernel
		// scheduling work.
		return KernelColour
	}
	if di, ok := k.m.PendingDevice(); ok {
		// The next operation fields this device's interrupt: it executes
		// on behalf of the device's owner.
		if owner := k.devOwner[di]; owner >= 0 {
			return model.Colour(k.cfg.Regimes[owner].Name)
		}
		return KernelColour
	}
	if machine.IsUser(k.m.PSW()) {
		return model.Colour(k.cfg.Regimes[k.current()].Name)
	}
	return KernelColour
}

// NextOp implements model.SharedSystem.
func (a *Adapter) NextOp() model.OpID {
	k := a.K
	if k.dead || k.m.Halted() {
		return "dead"
	}
	if k.cfg.FixedSlice > 0 && k.m.ReadPhys(KData+kdSliceLeft) == 0 {
		return "kernel:slice-switch"
	}
	if di, ok := k.m.PendingDevice(); ok {
		return model.OpID("field-irq:" + k.m.Devices()[di].Name())
	}
	if machine.IsUser(k.m.PSW()) {
		cur := k.current()
		b := make([]byte, 0, 48)
		if j := k.deliverablePending(); j >= 0 {
			b = append(append(append(b, "deliver-irq:"...), k.cfg.Regimes[cur].Name...), ':')
			return model.OpID(strconv.AppendInt(b, int64(j), 10))
		}
		pc := k.m.PC()
		b = append(append(append(b, "user:"...), k.cfg.Regimes[cur].Name...), '@')
		b = append(hexWord(b, pc), ':')
		if instr, ok := k.regimeRead(cur, pc); ok {
			return model.OpID(hexWord(b, instr))
		}
		return model.OpID(append(b, "unfetchable"...))
	}
	return "kernel:idle"
}

// Step implements model.SharedSystem: one CPU operation (device activity
// belongs to ApplyInput).
func (a *Adapter) Step() { a.K.StepCPU() }

// ApplyInput implements model.SharedSystem: deliver stimuli to the input
// devices, then let every device tick once.
func (a *Adapter) ApplyInput(i model.Input) {
	if i != nil {
		iv := i.(InputVec)
		for _, d := range a.K.m.Devices() {
			if _, ok := d.(machine.InputSink); ok {
				if ws := iv[d.Name()]; len(ws) > 0 {
					// Injection goes through the machine so delta tracking
					// sees the device mutation.
					a.K.m.Inject(d, ws)
				}
			}
		}
	}
	a.K.m.TickDevices()
}

// CurrentOutput implements model.SharedSystem.
func (a *Adapter) CurrentOutput() model.Output {
	ov := OutputVec{}
	for _, d := range a.K.m.Devices() {
		if src, ok := d.(machine.OutputSource); ok {
			ov[d.Name()] = src.PeekOutput()
		}
	}
	return ov
}

// hexWord appends w as four lower-case hex digits (fmt's %04x). Φ^c is
// mostly partition words, so this is the hot path of randomized checking.
func hexWord(dst []byte, w Word) []byte {
	const digits = "0123456789abcdef"
	return append(dst, digits[w>>12&0xF], digits[w>>8&0xF], digits[w>>4&0xF], digits[w&0xF])
}

// appendHex appends w in lower-case hex without padding (fmt's %x).
func appendHex(dst []byte, w Word) []byte { return strconv.AppendUint(dst, uint64(w), 16) }

// appendField appends "name=" followed by w rendered by enc, then ';'.
func appendField(dst []byte, name string, w Word, enc func([]byte, Word) []byte) []byte {
	dst = append(append(dst, name...), '=')
	return append(enc(dst, w), ';')
}

// Abstract implements model.SharedSystem: Φ^c as a canonical string.
func (a *Adapter) Abstract(c model.Colour) string { return string(a.renderPhi(c)) }

// AbstractDigest implements model.Digester: the FNV-1a 64-bit digest of
// the canonical Φ^c encoding. This is the comparison the checkers' hot
// paths use; it hashes the very bytes Abstract copies into its string.
// During a delta checkpoint the digest is served from the per-regime cache
// when provably fresh (see phicache.go); the full rendering stays the
// oracle, so the returned value is identical either way.
func (a *Adapter) AbstractDigest(c model.Colour) uint64 {
	if dig, ok := a.cachedDigest(c); ok {
		return dig
	}
	dig := model.DigestBytes(a.renderPhi(c))
	a.storeDigest(c, dig)
	return dig
}

// renderPhi renders Φ^c into the adapter's scratch buffer, which stays
// valid until the next rendering. Every adapter, clones included, owns its
// own buffer.
func (a *Adapter) renderPhi(c model.Colour) []byte {
	a.phiBuf = a.appendPhi(a.phiBuf[:0], c)
	return a.phiBuf
}

// appendPhi appends the canonical Φ^c encoding of the current state to dst.
func (a *Adapter) appendPhi(dst []byte, c model.Colour) []byte {
	k := a.K
	i := k.RegimeIndex(string(c))
	if i < 0 {
		return dst
	}
	r := k.cfg.Regimes[i]

	// Register file and control state, as the regime would observe it.
	for reg := 0; reg < 6; reg++ {
		dst = append(hexWord(append(dst, 'r', byte('0'+reg), '='), k.RegimeReg(i, reg)), ';')
	}
	dst = appendField(dst, "sp", k.RegimeReg(i, machine.RegSP), hexWord)
	dst = appendField(dst, "pc", k.RegimeReg(i, machine.RegPC), hexWord)
	dst = appendField(dst, "cc", k.RegimePSW(i), appendHex)
	sb := saveBase(i)
	dst = appendField(dst, "st", k.m.ReadPhys(sb+saveState), appendHex)
	dst = appendField(dst, "pend", k.m.ReadPhys(sb+savePending), hexWord)
	dst = appendField(dst, "ipl", k.m.ReadPhys(sb+saveIPL), appendHex)

	// The partition, word by word.
	dst = append(dst, "mem="...)
	for _, w := range k.m.RAMSlice(r.Base, r.Size) {
		dst = hexWord(dst, w)
	}
	dst = append(dst, ';')

	// Owned devices.
	for _, d := range r.Devices {
		dst = append(append(append(dst, "dev:"...), d.Name()...), '=')
		for _, w := range d.SnapshotState() {
			dst = hexWord(dst, w)
		}
		dst = append(dst, ';')
	}

	// Channel views: what this regime could learn via SEND/RECV/POLL.
	for ci, ch := range k.cfg.Channels {
		base := k.chanBase(ci)
		capa := k.m.ReadPhys(base + 3)
		switch string(c) {
		case ch.From:
			// The sender observes only the free space.
			dst = append(append(append(dst, "ch:"...), ch.Name...), ":free="...)
			dst = append(strconv.AppendUint(dst, uint64(capa-k.m.ReadPhys(base+2)), 10), ';')
		case ch.To:
			// The receiver observes the queued words: buffer B (after
			// buffer A) in the cut system, the one shared buffer otherwise.
			cnt, head, buf := k.m.ReadPhys(base+2), k.m.ReadPhys(base+0), base+8
			if k.cfg.CutChannels {
				cnt, head, buf = k.m.ReadPhys(base+6), k.m.ReadPhys(base+4), base+8+capa
			}
			dst = append(append(append(dst, "ch:"...), ch.Name...), ":rd="...)
			dst = append(strconv.AppendUint(dst, uint64(cnt), 10), ':')
			for j := Word(0); j < cnt; j++ {
				dst = hexWord(dst, k.m.ReadPhys(buf+(head+j)%capa))
			}
			dst = append(dst, ';')
		}
	}
	return dst
}

// ClassifyOp implements model.OpClassifier: collapse OpIDs (which embed
// program counters and instruction words — unbounded cardinality) into
// stable metric buckets. User operations are bucketed by decoded mnemonic:
// "user:red@0040:1234" becomes "user:MOV".
func (a *Adapter) ClassifyOp(op model.OpID) string {
	s := string(op)
	if strings.HasPrefix(s, "user:") {
		if i := strings.LastIndexByte(s, ':'); i >= 0 {
			suf := s[i+1:]
			if suf == "unfetchable" {
				return "user:unfetchable"
			}
			if w, err := strconv.ParseUint(suf, 16, 16); err == nil {
				return "user:" + machine.OpName(machine.DecodeOp(Word(w)))
			}
		}
		return "user"
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// ExtractInput implements model.SharedSystem.
func (a *Adapter) ExtractInput(c model.Colour, i model.Input) string {
	if i == nil {
		return ""
	}
	return a.extract(c, i.(InputVec))
}

// ExtractOutput implements model.SharedSystem.
func (a *Adapter) ExtractOutput(c model.Colour, o model.Output) string {
	return a.extract(c, o.(OutputVec))
}

// extract renders the entries of a device vector that colour c owns as
// "name=words;" in name order, each word as four hex digits.
func (a *Adapter) extract(c model.Colour, vec map[string][]Word) string {
	var names []string
	for name := range vec {
		if a.owner[name] == c {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		b = append(append(b, name...), '=')
		for _, w := range vec[name] {
			b = hexWord(b, w)
		}
		b = append(b, ';')
	}
	return string(b)
}

// Clone implements model.Replicable: it builds a fresh machine carrying
// replicas of every attached device, binds an identically configured
// kernel to it, and copies the current architectural state across via a
// snapshot, yielding a fully independent system for a parallel checker
// worker. Returns nil when any attached device cannot be replicated (link
// endpoints are wired to shared environment state, so systems using them
// fall back to single-threaded checking).
func (a *Adapter) Clone() model.SharedSystem {
	k := a.K
	m2 := machine.New(k.m.RAMWords())
	devByName := map[string]machine.Device{}
	for _, d := range k.m.Devices() {
		rep, ok := d.(machine.Replicator)
		if !ok {
			return nil
		}
		nd := rep.Replicate()
		if nd == nil {
			return nil
		}
		// Attaching in bus order reproduces register blocks and vectors.
		m2.Attach(nd)
		devByName[nd.Name()] = nd
	}

	cfg := k.cfg
	cfg.Regimes = append([]RegimeSpec(nil), k.cfg.Regimes...)
	for ri := range cfg.Regimes {
		r := &cfg.Regimes[ri]
		devs := make([]machine.Device, len(r.Devices))
		for di, d := range r.Devices {
			devs[di] = devByName[d.Name()]
		}
		r.Devices = devs
	}
	cfg.Channels = append([]ChannelSpec(nil), k.cfg.Channels...)

	k2, err := New(m2, cfg)
	if err != nil {
		return nil
	}
	// Boot initializes the kernel's bookkeeping (fault/instruction
	// counters) and proves the configuration loads; the snapshot restore
	// then overwrites the booted state with the original's current state.
	if err := k2.Boot(); err != nil {
		return nil
	}
	if err := m2.Restore(k.m.Snapshot()); err != nil {
		return nil
	}
	k2.dead = k.dead
	k2.Cause = k.Cause

	a2 := NewAdapter(k2)
	a2.PerturbWords = a.PerturbWords
	return a2
}

// --- Perturbable ---

// Randomize implements model.Perturbable: reboot and run a random prefix
// with random stimuli, landing in a random reachable state.
func (a *Adapter) Randomize(r model.Rand) {
	if err := a.K.Boot(); err != nil {
		panic(fmt.Sprintf("kernel adapter: boot: %v", err))
	}
	steps := r.Intn(400)
	for s := 0; s < steps; s++ {
		if r.Intn(8) == 0 {
			a.ApplyInput(a.RandomInput(r))
		} else {
			a.ApplyInput(nil)
		}
		a.Step()
	}
}

// RandomInput implements model.Perturbable.
func (a *Adapter) RandomInput(r model.Rand) model.Input {
	iv := InputVec{}
	for _, d := range a.K.m.Devices() {
		if _, ok := d.(machine.InputSink); !ok {
			continue
		}
		if r.Intn(3) == 0 {
			n := 1 + r.Intn(2)
			ws := make([]Word, n)
			for j := range ws {
				ws[j] = Word(r.Uint32() & 0xff)
			}
			iv[d.Name()] = ws
		}
	}
	return iv
}

// RandomInputMatching implements model.Perturbable: keep c's components of
// i, randomize the rest.
func (a *Adapter) RandomInputMatching(c model.Colour, i model.Input, r model.Rand) model.Input {
	out := InputVec{}
	var orig InputVec
	if i != nil {
		orig = i.(InputVec)
	}
	for _, d := range a.K.m.Devices() {
		if _, ok := d.(machine.InputSink); !ok {
			continue
		}
		name := d.Name()
		if a.owner[name] == c {
			if ws, ok := orig[name]; ok {
				out[name] = append([]Word(nil), ws...)
			}
			continue
		}
		if r.Intn(3) == 0 {
			n := 1 + r.Intn(2)
			ws := make([]Word, n)
			for j := range ws {
				ws[j] = Word(r.Uint32() & 0xff)
			}
			out[name] = ws
		}
	}
	return out
}

// PerturbOutside implements model.Perturbable: scramble state that does
// not belong to colour c — other partitions, other save areas, the kernel
// scratch word, and channel-buffer words invisible to c — while leaving
// Φ^c, the machine's interrupt posture, and the scheduling state intact.
func (a *Adapter) PerturbOutside(c model.Colour, r model.Rand) {
	k := a.K
	m := k.m
	cur := k.current()
	curLive := machine.IsUser(m.PSW())

	for ri, spec := range k.cfg.Regimes {
		if model.Colour(spec.Name) == c {
			continue
		}
		// Partition words: always the first few (context-switch bugs love
		// partition bases), plus a random sample.
		for off := Word(0); off < 4 && off < spec.Size; off++ {
			m.WritePhys(spec.Base+off, Word(r.Uint32()))
		}
		for t := 0; t < a.PerturbWords; t++ {
			off := Word(r.Uint32()) % spec.Size
			m.WritePhys(spec.Base+off, Word(r.Uint32()))
		}
		// Register context: live machine registers when this regime holds
		// the CPU, its save area otherwise.
		if ri == cur && curLive {
			for reg := 0; reg < 6; reg++ {
				if r.Intn(2) == 0 {
					m.SetReg(reg, Word(r.Uint32()))
				}
			}
		} else {
			sb := saveBase(ri)
			for reg := Word(0); reg < 6; reg++ {
				if r.Intn(2) == 0 {
					m.WritePhys(sb+saveR0+reg, Word(r.Uint32()))
				}
			}
		}
	}

	// Kernel scratch word: no regime's abstract state includes it.
	m.WritePhys(KData+kdScratch, Word(r.Uint32()))

	// Channel buffers: words c cannot observe. For channels c sends on,
	// the buffered *contents* are invisible (only free space is visible);
	// for channels between other colours, contents are invisible to c
	// (counts stay put so the owners' views are preserved too — the
	// perturbation must only vary along directions outside Φ^c, and
	// changing another colour's visible count is legitimate but makes
	// counterexample interpretation noisier than necessary).
	for ci, ch := range k.cfg.Channels {
		base := k.chanBase(ci)
		capa := k.m.ReadPhys(base + 3)
		if capa == 0 {
			continue
		}
		sendContentsInvisible := ch.To != string(c)
		if k.cfg.CutChannels {
			// In the cut system buffer A's contents are invisible to
			// everyone, and buffer B (the read end) belongs to ch.To.
			if sendContentsInvisible {
				// Perturb unused slots of buffer A only (outside count
				// window) — count itself is visible to the sender.
				a.perturbRingSlack(base, 8, capa, r)
			}
		} else {
			if sendContentsInvisible {
				// Contents of the queue are visible only to ch.To.
				a.perturbRingSlack(base, 8, capa, r)
			}
		}
	}
}

// perturbRingSlack randomizes ring-buffer slots outside the live window
// [head, head+count): those words are invisible to every colour.
func (a *Adapter) perturbRingSlack(base, bufOff, capa Word, r model.Rand) {
	m := a.K.m
	head := m.ReadPhys(base + 0)
	count := m.ReadPhys(base + 2)
	for j := Word(0); j < capa; j++ {
		idx := (head + count + j) % capa
		if j < capa-count {
			if r.Intn(2) == 0 {
				m.WritePhys(base+bufOff+idx, Word(r.Uint32()))
			}
		}
	}
}
