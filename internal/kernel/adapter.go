package kernel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/model"
)

// RegimePSW returns the user-visible PSW bits (condition codes) of regime
// i: live when the regime holds the CPU, from the save area otherwise.
func (k *Kernel) RegimePSW(i int) Word {
	psw := k.m.PSW()
	if !k.live(i) {
		psw = k.m.ReadPhys(saveBase(i) + savePSW)
	}
	return psw & (machine.FlagN | machine.FlagZ | machine.FlagV | machine.FlagC)
}

// InputVec is one external stimulus: entry j holds the words delivered to
// the machine's device j (bus order) at this time step, nil for no
// stimulus.
type InputVec [][]Word

// OutputVec is the observable output state: entry j is the cumulative
// output of device j when it is an output source, nil otherwise.
type OutputVec [][]Word

// Adapter presents a booted SUE-Go system as the shared system of the
// paper's Appendix model, so that package separability can check the six
// conditions against it.
//
// The mapping is:
//
//	S       = machine.Snapshot (CPU + MMU + RAM + devices) plus kernel death
//	OPS     = {user instruction, kernel service, interrupt fielding,
//	           virtual interrupt delivery, idle} — one Kernel.StepCPU each
//	INPUT   = stimulus words per input device, by bus position; inject
//	          them, then tick devices
//	OUTPUT  = cumulative output per output device, by bus position (a
//	          pure function of S)
//	COLOUR  = owner of the interrupt about to be fielded, else the current
//	          regime when in user mode, else the kernel pseudo-colour
//	EXTRACT = the entries whose device the kernel assigns to the colour's
//	          regime (Kernel.devOwner), in bus order
//	Φ^c     = partition RAM + register file + run/pending/IPL words +
//	          owned-device state + the regime's view of each channel
type Adapter struct {
	K *Kernel

	colours []model.Colour

	// The hot-path buffers the adapter owns: phiWords is the scratch
	// vector Φ^c is gathered into (see gatherPhi), out the vector
	// CurrentOutput refills and outBox the same vector boxed once as a
	// model.Output, and cp the payload Checkpoint hands out. NewAdapter
	// leaves them zero, so a clone never shares its original's.
	phiWords []Word
	out      OutputVec
	outBox   model.Output
	cp       adapterCheckpoint
}

// KernelColour is returned by Colour for states where the next operation
// is the kernel's own (the idle loop) rather than any user's.
const KernelColour model.Colour = "_kernel"

// perturbWords is how many randomly placed partition words each
// perturbation scrambles per regime, beyond the first four.
const perturbWords = 8

// NewAdapter wraps a booted kernel.
func NewAdapter(k *Kernel) *Adapter {
	a := &Adapter{K: k}
	for _, r := range k.cfg.Regimes {
		a.colours = append(a.colours, model.Colour(r.Name))
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

// adapterCheckpoint is the model.Checkpoint payload: the machine's delta
// plus the kernel-level dead flag — exactly the components adapterState
// restores on the full-snapshot path.
type adapterCheckpoint struct {
	delta *machine.Delta
	dead  bool
}

// Checkpoint implements model.Checkpointer. Returns nil (caller falls back
// to Save/Restore) when a delta is already active on the machine. The
// payload is the adapter's own: at most one delta is active per machine,
// so at most one checkpoint is live at a time.
func (a *Adapter) Checkpoint() model.Checkpoint {
	d := a.K.m.DeltaSnapshot()
	if d == nil {
		return nil
	}
	a.cp = adapterCheckpoint{delta: d, dead: a.K.dead}
	return &a.cp
}

// Rollback implements model.Checkpointer.
func (a *Adapter) Rollback(cp model.Checkpoint) {
	st := cp.(*adapterCheckpoint)
	a.K.m.DeltaRestore(st.delta)
	a.K.dead = st.dead
}

// Release implements model.Checkpointer: roll back, then stop tracking.
func (a *Adapter) Release(cp model.Checkpoint) {
	a.Rollback(cp)
	a.K.m.EndDelta(cp.(*adapterCheckpoint).delta)
}

// Colour implements model.SharedSystem: the colour on whose behalf the
// next operation (Kernel.next) will execute.
func (a *Adapter) Colour() model.Colour {
	k := a.K
	switch op, arg := k.next(); op {
	case opFieldIRQ:
		// Fielding an interrupt executes on behalf of the device's owner.
		if owner := k.devOwner[arg]; owner >= 0 {
			return model.Colour(k.cfg.Regimes[owner].Name)
		}
	case opDeliver, opUser:
		return model.Colour(k.cfg.Regimes[k.current()].Name)
	}
	return KernelColour
}

// NextOp implements model.SharedSystem: Kernel.next rendered as an OpID.
func (a *Adapter) NextOp() model.OpID {
	k := a.K
	op, arg := k.next()
	switch op {
	case opDead:
		return "dead"
	case opSlice:
		return "kernel:slice-switch"
	case opFieldIRQ:
		return model.OpID("field-irq:" + k.m.Devices()[arg].Name())
	case opIdle:
		return "kernel:idle"
	}
	cur := k.current()
	b := make([]byte, 0, 48)
	if op == opDeliver {
		b = append(append(append(b, "deliver-irq:"...), k.cfg.Regimes[cur].Name...), ':')
		return model.OpID(strconv.AppendInt(b, int64(arg), 10))
	}
	pc := k.m.PC()
	b = append(append(append(b, "user:"...), k.cfg.Regimes[cur].Name...), '@')
	b = append(hexWord(b, pc), ':')
	if instr, ok := k.regimeRead(cur, pc); ok {
		return model.OpID(hexWord(b, instr))
	}
	return model.OpID(append(b, "unfetchable"...))
}

// Step implements model.SharedSystem: one CPU operation (device activity
// belongs to ApplyInput).
func (a *Adapter) Step() { a.K.StepCPU() }

// ApplyInput implements model.SharedSystem: deliver stimuli to the input
// devices, then let every device tick once.
func (a *Adapter) ApplyInput(i model.Input) {
	if i != nil {
		devs := a.K.m.Devices()
		for j, ws := range i.(InputVec) {
			if len(ws) > 0 {
				// Injection goes through the machine so delta tracking
				// sees the device mutation.
				a.K.m.Inject(devs[j], ws)
			}
		}
	}
	a.K.m.TickDevices()
}

// CurrentOutput implements model.SharedSystem. It refills the vector the
// adapter owns, reusing each entry's storage, so the value it returns
// stays valid only until the system's state changes or CurrentOutput is
// called again. An output source's entry is non-nil even when it has
// emitted nothing: extract renders it as "name=;".
func (a *Adapter) CurrentOutput() model.Output {
	devs := a.K.m.Devices()
	if a.outBox == nil || len(a.out) != len(devs) {
		a.out = make(OutputVec, len(devs))
		a.outBox = a.out
	}
	for j, d := range devs {
		if src, ok := d.(machine.OutputSource); ok {
			ws := src.AppendOutput(a.out[j][:0])
			if ws == nil {
				ws = []Word{}
			}
			a.out[j] = ws
		}
	}
	return a.outBox
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

// Abstract implements model.SharedSystem: Φ^c as a canonical string,
// rendered from the same gathered vector AbstractDigest fingerprints.
func (a *Adapter) Abstract(c model.Colour) string {
	a.phiWords = a.gatherPhi(a.phiWords[:0], c)
	// Four hex digits per word, plus room for the field names.
	b := a.appendPhi(make([]byte, 0, 4*len(a.phiWords)+128), c, a.phiWords)
	// b is fresh and never written again, so the string may share it (the
	// strings.Builder idiom) instead of copying it.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AbstractDigest implements model.Digester: the fingerprint of the values
// Φ^c is rendered from, so two digests of one colour are equal exactly when
// the Abstract strings are (up to 64-bit collisions).
func (a *Adapter) AbstractDigest(c model.Colour) uint64 {
	a.phiWords = a.gatherPhi(a.phiWords[:0], c)
	return fingerprint(a.phiWords)
}

// gatherPhi appends to dst the values Φ^c is rendered from, in rendering
// order: r0..r5, sp, pc, cc, st, pend and ipl as the regime would observe
// them; the partition; each owned device's state after a two-word length
// (low half, high half); and per channel the derived values the regime can
// observe, the free space when it sends and the queued count followed by
// the queued words when it receives. appendPhi is the only reader of the
// layout.
func (a *Adapter) gatherPhi(dst []Word, c model.Colour) []Word {
	k := a.K
	i := k.RegimeIndex(string(c))
	if i < 0 {
		return dst
	}
	r := k.cfg.Regimes[i]
	for reg := 0; reg < 8; reg++ { // r0..r5, then machine.RegSP and RegPC
		dst = append(dst, k.RegimeReg(i, reg))
	}
	sb := saveBase(i)
	dst = append(dst, k.RegimePSW(i), k.m.ReadPhys(sb+saveState),
		k.m.ReadPhys(sb+savePending), k.m.ReadPhys(sb+saveIPL))
	dst = append(dst, k.m.RAMSlice(r.Base, r.Size)...)
	for _, d := range r.Devices {
		// Reserve the length words, append the state, then patch them.
		at := len(dst)
		dst = d.AppendState(append(dst, 0, 0))
		n := len(dst) - at - 2
		dst[at], dst[at+1] = Word(n), Word(n>>16)
	}
	for ci, ch := range k.cfg.Channels {
		switch string(c) {
		case ch.From:
			// The sender observes only the free space at its end.
			e := k.sendEnd[ci]
			dst = append(dst, k.m.ReadPhys(e.base+chCap)-k.m.ReadPhys(e.hdr+chCount))
		case ch.To:
			// The receiver observes the words queued at its end.
			e := k.recvEnd[ci]
			capa, head, cnt := k.m.ReadPhys(e.base+chCap), k.m.ReadPhys(e.hdr+chHead), k.m.ReadPhys(e.hdr+chCount)
			dst = append(dst, cnt)
			for j := Word(0); j < cnt; j++ {
				dst = append(dst, k.m.ReadPhys(e.buf+(head+j)%capa))
			}
		}
	}
	return dst
}

// appendPhi appends the canonical Φ^c encoding of ws, a vector gatherPhi
// built for colour c, to dst.
func (a *Adapter) appendPhi(dst []byte, c model.Colour, ws []Word) []byte {
	k := a.K
	i := k.RegimeIndex(string(c))
	if i < 0 {
		return dst
	}
	r := k.cfg.Regimes[i]

	// Register file and control state.
	for reg := 0; reg < 6; reg++ {
		dst = append(hexWord(append(dst, 'r', byte('0'+reg), '='), ws[reg]), ';')
	}
	dst = appendField(dst, "sp", ws[6], hexWord)
	dst = appendField(dst, "pc", ws[7], hexWord)
	dst = appendField(dst, "cc", ws[8], appendHex)
	dst = appendField(dst, "st", ws[9], appendHex)
	dst = appendField(dst, "pend", ws[10], hexWord)
	dst = appendField(dst, "ipl", ws[11], appendHex)
	ws = ws[12:]

	// The partition, word by word.
	dst = append(dst, "mem="...)
	for _, w := range ws[:r.Size] {
		dst = hexWord(dst, w)
	}
	dst = append(dst, ';')
	ws = ws[r.Size:]

	// Owned devices.
	for _, d := range r.Devices {
		n := int(ws[0]) | int(ws[1])<<16
		dst = append(append(append(dst, "dev:"...), d.Name()...), '=')
		for _, w := range ws[2 : 2+n] {
			dst = hexWord(dst, w)
		}
		dst = append(dst, ';')
		ws = ws[2+n:]
	}

	// Channel views: what this regime could learn via SEND/RECV/POLL.
	for _, ch := range k.cfg.Channels {
		switch string(c) {
		case ch.From:
			dst = append(append(append(dst, "ch:"...), ch.Name...), ":free="...)
			dst = append(strconv.AppendUint(dst, uint64(ws[0]), 10), ';')
			ws = ws[1:]
		case ch.To:
			cnt := int(ws[0])
			dst = append(append(append(dst, "ch:"...), ch.Name...), ":rd="...)
			dst = append(strconv.AppendUint(dst, uint64(cnt), 10), ':')
			for _, w := range ws[1 : 1+cnt] {
				dst = hexWord(dst, w)
			}
			dst = append(dst, ';')
			ws = ws[1+cnt:]
		}
	}
	return dst
}

// userOpClasses holds the bucket of every opcode machine.DecodeOp can
// yield from a 16-bit instruction word, so ClassifyOp allocates nothing.
var userOpClasses = func() (t [1 << 6]string) {
	for op := range t {
		t[op] = "user:" + machine.OpName(Word(op))
	}
	return t
}()

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
				return userOpClasses[machine.DecodeOp(Word(w))]
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

// extract renders the non-nil entries of a device vector whose device the
// kernel assigns to colour c's regime as "name=words;" in bus order, each
// word as four hex digits. Witnesses, shards and ledgers persist these
// strings in name order; no configuration gives a regime more than one
// input sink or more than one output source, so bus order is name order.
func (a *Adapter) extract(c model.Colour, vec [][]Word) string {
	k := a.K
	ri := k.RegimeIndex(string(c))
	if ri < 0 {
		return ""
	}
	devs := k.m.Devices()
	// Size the rendering first, so it is written into one exact buffer.
	n := 0
	for j, ws := range vec {
		if ws != nil && k.devOwner[j] == ri {
			n += len(devs[j].Name()) + 4*len(ws) + 2
		}
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	var hex [4]byte
	for j, ws := range vec {
		if ws == nil || k.devOwner[j] != ri {
			continue
		}
		b.WriteString(devs[j].Name())
		b.WriteByte('=')
		for _, w := range ws {
			b.Write(hexWord(hex[:0], w))
		}
		b.WriteByte(';')
	}
	return b.String()
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
	cfg := k.cfg
	cfg.Regimes = append([]RegimeSpec(nil), k.cfg.Regimes...)
	for ri, r := range cfg.Regimes {
		cfg.Regimes[ri].Devices = make([]machine.Device, len(r.Devices))
	}
	for j, d := range k.m.Devices() {
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
		if ri := k.devOwner[j]; ri >= 0 {
			cfg.Regimes[ri].Devices[k.devLocal[j]] = nd
		}
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

	return NewAdapter(k2)
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

// RandomInput implements model.Perturbable: every input sink draws, since
// the kernel pseudo-colour owns none.
func (a *Adapter) RandomInput(r model.Rand) model.Input {
	return a.RandomInputMatching(KernelColour, nil, r)
}

// RandomInputMatching implements model.Perturbable: keep the stimuli of
// c's input sinks from i, and give every other input sink a one-in-three
// chance of one or two random words. The vector is allocated only once a
// sink gets a stimulus; a draw that gives none returns InputVec(nil),
// which applies as a plain tick and encodes as "{}".
func (a *Adapter) RandomInputMatching(c model.Colour, i model.Input, r model.Rand) model.Input {
	k := a.K
	ri := k.RegimeIndex(string(c))
	var orig InputVec
	if i != nil {
		orig = i.(InputVec)
	}
	devs := k.m.Devices()
	var out InputVec
	for j, d := range devs {
		if _, ok := d.(machine.InputSink); !ok {
			continue
		}
		var ws []Word
		if ri >= 0 && k.devOwner[j] == ri {
			if j >= len(orig) || orig[j] == nil {
				continue
			}
			ws = slices.Clone(orig[j])
		} else if r.Intn(3) == 0 {
			ws = make([]Word, 1+r.Intn(2))
			for n := range ws {
				ws[n] = Word(r.Uint32() & 0xff)
			}
		} else {
			continue
		}
		if out == nil {
			out = make(InputVec, len(devs))
		}
		out[j] = ws
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
	for ri, spec := range k.cfg.Regimes {
		if model.Colour(spec.Name) == c {
			continue
		}
		// Partition words: always the first few (context-switch bugs love
		// partition bases), plus a random sample.
		for off := Word(0); off < 4 && off < spec.Size; off++ {
			m.WritePhys(spec.Base+off, Word(r.Uint32()))
		}
		for t := 0; t < perturbWords; t++ {
			off := Word(r.Uint32()) % spec.Size
			m.WritePhys(spec.Base+off, Word(r.Uint32()))
		}
		// Register context: live machine registers when this regime holds
		// the CPU, its save area otherwise.
		if k.live(ri) {
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
		e := k.sendEnd[ci]
		capa := k.m.ReadPhys(e.base + chCap)
		// Queued contents are visible only to ch.To. The slack walked is
		// the sending end's; in the cut system nobody observes its
		// contents, and the receiving end (buffer B) belongs to ch.To.
		if capa != 0 && ch.To != string(c) {
			a.perturbRingSlack(e, capa, r)
		}
	}
}

// perturbRingSlack randomizes the slots of end e's ring outside the live
// window [head, head+count): those words are invisible to every colour. It
// walks the capa-count free slots from head+count, wrapping at capa; a
// count above capa draws every slot.
func (a *Adapter) perturbRingSlack(e chanEnd, capa Word, r model.Rand) {
	m := a.K.m
	head := m.ReadPhys(e.hdr + chHead)
	count := m.ReadPhys(e.hdr + chCount)
	free := capa
	if count <= capa {
		free = capa - count
	}
	idx := (head + count) % capa
	for j := Word(0); j < free; j++ {
		if r.Intn(2) == 0 {
			m.WritePhys(e.buf+idx, Word(r.Uint32()))
		}
		if idx++; idx == capa {
			idx = 0
		}
	}
}
