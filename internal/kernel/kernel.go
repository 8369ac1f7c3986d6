package kernel

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/obs"
)

// RegimeSpec configures one regime: a fixed partition of real memory, a
// program, and the devices the regime owns outright.
type RegimeSpec struct {
	// Name identifies the regime; it doubles as the regime's colour in the
	// formal model.
	Name string
	// Base and Size fix the regime's physical memory partition, allocated
	// permanently at configuration time (the SUE performs no memory
	// management at run time). Base must be >= KernelEnd.
	Base Word
	Size Word
	// Image is the regime's program; its .org is a virtual address inside
	// the partition (virtual address 0 is the partition base).
	Image *asm.Image
	// Devices lists the machine devices this regime owns. Each owned
	// device j is mapped at virtual address DeviceVirtBase(j).
	Devices []machine.Device
}

// ChannelSpec declares one unidirectional inter-regime communication
// channel, the only mechanism by which regimes may interact.
type ChannelSpec struct {
	Name     string
	From, To string // regime names
	Capacity int    // words buffered in the kernel; default 16
}

// Config is the complete static configuration of a SUE-Go system. The SUE
// has no dynamic resource management: everything is fixed here.
type Config struct {
	Regimes  []RegimeSpec
	Channels []ChannelSpec

	// CutChannels enables the paper's channel-cutting transformation: each
	// channel's shared buffer X is aliased into X1 (the writer's end,
	// buffer A) and X2 (the reader's end, buffer B, which nothing fills),
	// so sends are swallowed and receives find nothing. It is read once,
	// where the kernel builds each channel's two ends; SEND, RECV, POLL
	// and the adapter's Φ^c then run the same code cut or uncut. Proving
	// the cut system isolated proves the uncut system has no channels
	// beyond the configured ones.
	CutChannels bool

	// FixedSlice, when positive, replaces run-until-SWAP scheduling with
	// fixed time slices of that many machine cycles: a regime that leaves
	// the CPU early (yields, waits, halts or faults) is parked and its
	// remaining slice burns in the kernel idle loop, and a regime that
	// never yields is preempted at the boundary.
	// Every rotation then takes the same wall-clock time regardless of
	// regime behaviour, which closes the scheduling/timing channel the
	// paper scopes out (see internal/timingchan) at the cost of idle
	// cycles. This is an extension beyond the SUE, anticipating the fixed
	// time-partitioning of later separation kernels.
	FixedSlice int

	// Leaks injects deliberate separation violations for verifying the
	// verifier. A correct kernel has the zero value.
	Leaks Leaks
}

// FaultInfo records why a regime died.
type FaultInfo struct {
	Reason string
	PC     Word
}

// Kernel is a booted SUE-Go instance bound to one machine.
type Kernel struct {
	m   *machine.Machine
	cfg Config

	devOwner []int     // machine device index -> regime index (-1 unowned)
	devLocal []int     // machine device index -> owned-device ordinal
	chanOff  []Word    // channel index -> header base (layout.go)
	chanCap  []Word    // channel index -> configured capacity
	sendEnd  []chanEnd // channel index -> the end SEND fills
	recvEnd  []chanEnd // channel index -> the end RECV drains
	kEnd     Word      // first word after kernel data + channel area

	dead  bool
	Cause error // why the kernel died, if dead

	faults []FaultInfo // indexed by regime
	stats  Stats       // activity counters since Boot

	// Observability (see package obs). The tracer and the counters above
	// live OUTSIDE the modelled state S: they are not part of any
	// machine.Snapshot, are never rendered into Φ^c, and are not carried
	// by Adapter.Clone — so attaching a tracer cannot change
	// AbstractDigest or any verification outcome (test-enforced).
	tracer  obs.Tracer
	running int // last resume target: regime index, -1 idle, -2 pre-boot
}

// New validates the configuration and binds a kernel to a machine that
// already has all referenced devices attached. Boot must be called before
// stepping.
func New(m *machine.Machine, cfg Config) (*Kernel, error) {
	k := &Kernel{m: m, cfg: cfg, running: -2}
	if err := k.validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// SetTracer installs (or, with nil, removes) an event tracer receiving the
// kernel's typed trace events: context switches, syscall enter/exit,
// interrupt fielding and delivery, channel traffic, faults and halts. The
// hook sits outside the modelled state — tracing never perturbs regime
// memory, the machine snapshot, or Φ^c — and costs one nil check per hook
// site when disabled.
func (k *Kernel) SetTracer(t obs.Tracer) { k.tracer = t }

// emit stamps the current machine cycle onto e and hands it to the tracer.
// Callers guard with k.tracer != nil.
func (k *Kernel) emit(e obs.Event) {
	e.Cycle = k.m.Cycles()
	k.tracer.Emit(e)
}

func (k *Kernel) validate() error {
	n := len(k.cfg.Regimes)
	if n == 0 {
		return fmt.Errorf("kernel: no regimes configured")
	}
	if n > 8 {
		return fmt.Errorf("kernel: at most 8 regimes supported, got %d", n)
	}
	names := map[string]int{}
	type span struct{ lo, hi Word }
	var spans []span
	for i, r := range k.cfg.Regimes {
		if r.Name == "" {
			return fmt.Errorf("kernel: regime %d has no name", i)
		}
		if _, dup := names[r.Name]; dup {
			return fmt.Errorf("kernel: duplicate regime name %q", r.Name)
		}
		names[r.Name] = i
		if r.Base < KernelEnd {
			return fmt.Errorf("kernel: regime %q partition base %#x inside kernel area", r.Name, r.Base)
		}
		if r.Size < 64 {
			return fmt.Errorf("kernel: regime %q partition too small (%d words)", r.Name, r.Size)
		}
		if int(r.Size) > MaxPartitionSegs*machine.SegmentWords {
			return fmt.Errorf("kernel: regime %q partition too large", r.Name)
		}
		if int(r.Base)+int(r.Size) > k.m.RAMWords() {
			return fmt.Errorf("kernel: regime %q partition exceeds RAM", r.Name)
		}
		if len(r.Devices) > 4 {
			return fmt.Errorf("kernel: regime %q owns more than 4 devices", r.Name)
		}
		if r.Image != nil && int(r.Image.Org)+len(r.Image.Words) > int(r.Size) {
			return fmt.Errorf("kernel: regime %q image does not fit its partition", r.Name)
		}
		spans = append(spans, span{r.Base, r.Base + r.Size})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				return fmt.Errorf("kernel: partitions of %q and %q overlap",
					k.cfg.Regimes[i].Name, k.cfg.Regimes[j].Name)
			}
		}
	}

	// Device ownership: every owned device must be attached, exactly once.
	devs := k.m.Devices()
	k.devOwner = make([]int, len(devs))
	k.devLocal = make([]int, len(devs))
	for i := range k.devOwner {
		k.devOwner[i] = -1
	}
	for ri, r := range k.cfg.Regimes {
		for li, d := range r.Devices {
			found := -1
			for di, md := range devs {
				if md == d {
					found = di
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("kernel: regime %q device %q not attached to machine", r.Name, d.Name())
			}
			if k.devOwner[found] >= 0 {
				return fmt.Errorf("kernel: device %q owned by two regimes", d.Name())
			}
			k.devOwner[found] = ri
			k.devLocal[found] = li
		}
	}

	// Channels reference existing regimes and fit the kernel data area.
	off := KData + kdSaves + Word(n)*saveStride
	for ci := range k.cfg.Channels {
		ch := &k.cfg.Channels[ci]
		if ch.Capacity <= 0 {
			ch.Capacity = 16
		}
		if ch.Capacity > 64 {
			return fmt.Errorf("kernel: channel %q capacity %d too large", ch.Name, ch.Capacity)
		}
		if _, ok := names[ch.From]; !ok {
			return fmt.Errorf("kernel: channel %q sender %q unknown", ch.Name, ch.From)
		}
		if _, ok := names[ch.To]; !ok {
			return fmt.Errorf("kernel: channel %q receiver %q unknown", ch.Name, ch.To)
		}
		if ch.From == ch.To {
			return fmt.Errorf("kernel: channel %q loops back to %q", ch.Name, ch.From)
		}
		k.chanOff = append(k.chanOff, off)
		k.chanCap = append(k.chanCap, Word(ch.Capacity))
		// Header + two buffers (send-end and receive-end; the second is
		// used only when channels are cut).
		off += chBuf + 2*Word(ch.Capacity)
	}
	if off > KStackTop-16 {
		return fmt.Errorf("kernel: channel buffers overflow the kernel data area")
	}
	k.kEnd = off

	if k.cfg.Leaks.ChannelAlias && len(k.cfg.Channels) < 2 {
		return fmt.Errorf("kernel: ChannelAlias leak needs at least two channels")
	}

	// Each channel's two ends. The sending end is buffer A; the receiving
	// end is buffer A too, or buffer B when the channels are cut. The
	// ChannelAlias leak points every channel at channel 0's ends.
	k.sendEnd = make([]chanEnd, len(k.chanOff))
	k.recvEnd = make([]chanEnd, len(k.chanOff))
	for ci := range k.chanOff {
		src := ci
		if k.cfg.Leaks.ChannelAlias {
			src = 0
		}
		base := k.chanOff[src]
		k.sendEnd[ci] = chanEnd{base: base, hdr: base, buf: base + chBuf}
		k.recvEnd[ci] = k.sendEnd[ci]
		if k.cfg.CutChannels {
			k.recvEnd[ci] = chanEnd{base: base, hdr: base + chHdrB, buf: base + chBuf + k.chanCap[src]}
		}
	}
	return nil
}

// Machine returns the machine this kernel supervises.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Boot initializes RAM, loads every regime's image into its partition, and
// resumes the first runnable regime.
func (k *Kernel) Boot() error {
	m := k.m
	m.Reset()
	m.ClearRAM()
	k.dead = false
	k.Cause = nil
	n := len(k.cfg.Regimes)
	k.faults = make([]FaultInfo, n)
	k.stats = Stats{
		InstrPerRegime:   make([]uint64, n),
		SyscallPerRegime: make([]uint64, n),
		SendPerRegime:    make([]uint64, n),
		RecvPerRegime:    make([]uint64, n),
	}
	k.running = -2

	// Vectors and stubs: everything lands on a stub the Go kernel
	// intercepts; the stub content is HALT as a belt-and-braces backstop.
	kpsw := machine.WithPriority(0, 7)
	for _, v := range []Word{machine.VecIllegal, machine.VecMMU, machine.VecTRAP} {
		m.SetVector(v, KStubBase+v, kpsw)
		m.WritePhys(KStubBase+v, machine.Enc2(machine.OpHALT, 0, 0))
	}
	for di := range m.Devices() {
		v := machine.VecDevBase + Word(di)*2
		m.SetVector(v, KStubBase+v, kpsw)
		m.WritePhys(KStubBase+v, machine.Enc2(machine.OpHALT, 0, 0))
	}

	// Idle loop: WAIT; BR .-2 — executed in kernel mode at priority 0.
	m.WritePhys(KIdle, machine.Enc2(machine.OpWAIT, 0, 0))
	m.WritePhys(KIdle+1, machine.EncBranch(machine.OpBR, -2))

	// ClearRAM left every other kernel word, save-area slot and channel
	// word 0: current regime 0, not parked, nothing pending, rings empty.
	m.WritePhys(KData+kdNumReg, Word(n))
	m.WritePhys(KData+kdSliceLeft, Word(k.cfg.FixedSlice))

	for i, r := range k.cfg.Regimes {
		if r.Image != nil {
			if err := m.LoadImage(r.Base+r.Image.Org, r.Image.Words); err != nil {
				return fmt.Errorf("kernel: loading %q: %w", r.Name, err)
			}
		}
		sb := saveBase(i)
		m.WritePhys(sb+saveSP, k.stackTop(i))
		entry := Word(0)
		if r.Image != nil {
			entry = r.Image.Org
			if s, ok := r.Image.Symbol("start"); ok {
				entry = s
			}
		}
		m.WritePhys(sb+savePC, entry)
		m.WritePhys(sb+savePSW, machine.PSWUser)
		m.WritePhys(sb+saveState, StateRunnable)
	}
	for ci := range k.cfg.Channels {
		m.WritePhys(k.chanOff[ci]+chCap, k.chanCap[ci])
	}

	k.resume(k.scheduleFrom(0))
	return nil
}

// stackTop returns the regime's initial virtual stack pointer: the top of
// its partition's virtual image.
func (k *Kernel) stackTop(i int) Word {
	return k.cfg.Regimes[i].Size
}

// --- regime address translation (the same mapping the MMU is programmed
// with, recomputed in Go so kernel services can touch regime memory) ---

// translate maps regime i's virtual address to a physical address under
// the partition (not device) mappings.
func (k *Kernel) translate(i int, vaddr Word) (Word, bool) {
	r := k.cfg.Regimes[i]
	if vaddr >= r.Size {
		return 0, false
	}
	return r.Base + vaddr, true
}

func (k *Kernel) regimeRead(i int, vaddr Word) (Word, bool) {
	pa, ok := k.translate(i, vaddr)
	if !ok {
		return 0, false
	}
	return k.m.ReadPhys(pa), true
}

func (k *Kernel) regimeWrite(i int, vaddr Word, v Word) bool {
	pa, ok := k.translate(i, vaddr)
	if !ok {
		return false
	}
	k.m.WritePhys(pa, v)
	return true
}

// mapRegime programs the MMU for regime i: its partition segments, then
// its owned devices — and nothing else. The few extra mappings the Leaks
// options add are exactly the separation violations E8 plants.
func (k *Kernel) mapRegime(i int) {
	m := k.m
	for s := 0; s < machine.NumSegments; s++ {
		m.SetSeg(s, 0, 0)
	}
	r := k.cfg.Regimes[i]
	remaining := int(r.Size)
	for s := 0; remaining > 0 && s < MaxPartitionSegs; s++ {
		limit := remaining
		if limit > machine.SegmentWords {
			limit = machine.SegmentWords
		}
		m.SetSeg(s, r.Base+Word(s)*machine.SegmentWords,
			machine.MakeSegCtl(limit, machine.AccessRW))
		remaining -= limit
	}
	for j, d := range r.Devices {
		h, _ := m.DeviceHandle(d)
		m.SetSeg(DeviceSegBase+j, h.Base, machine.MakeSegCtl(d.Size(), machine.AccessRW))
	}

	if k.cfg.Leaks.PartitionOverlap && len(k.cfg.Regimes) > 1 {
		next := k.cfg.Regimes[(i+1)%len(k.cfg.Regimes)]
		m.SetSeg(12, next.Base, machine.MakeSegCtl(1, machine.AccessRW))
	}
	if k.cfg.Leaks.SharedScratch {
		m.SetSeg(13, KData+kdScratch, machine.MakeSegCtl(1, machine.AccessRW))
	}
}

// --- scheduling and context switching ---

func (k *Kernel) current() int { return int(k.m.ReadPhys(KData + kdCurrent)) }

func (k *Kernel) regimeState(i int) Word { return k.m.ReadPhys(saveBase(i) + saveState) }

func (k *Kernel) setRegimeState(i int, s Word) { k.m.WritePhys(saveBase(i)+saveState, s) }

// runnable reports whether regime i can be scheduled now, waking WaitIRQ
// regimes whose devices have pended.
func (k *Kernel) runnable(i int) bool {
	switch k.regimeState(i) {
	case StateRunnable:
		return true
	case StateWaitIRQ:
		if k.m.ReadPhys(saveBase(i)+savePending) != 0 {
			k.setRegimeState(i, StateRunnable)
			return true
		}
	}
	return false
}

// scheduleFrom picks the next runnable regime starting the round-robin at
// index start; -1 means idle.
func (k *Kernel) scheduleFrom(start int) int {
	k.stats.SchedDecisions++
	n := len(k.cfg.Regimes)
	for d := 0; d < n; d++ {
		i := (start + d) % n
		if k.cfg.Leaks.SchedulerSnoop && n > 0 {
			// Insecure: the rotation depends on a word of regime 0's
			// memory, so regime 0 modulates when everyone else runs.
			if k.m.ReadPhys(k.cfg.Regimes[0].Base)&1 == 1 && d == 0 {
				continue
			}
		}
		if k.runnable(i) {
			return i
		}
	}
	return -1
}

// scheduleNext rotates past the current regime.
func (k *Kernel) scheduleNext() int { return k.scheduleFrom((k.current() + 1) % len(k.cfg.Regimes)) }

// saveCurrent copies the trapped user context (live registers, user SP in
// the alternate bank, PC/PSW on the kernel stack) into the current
// regime's save area.
func (k *Kernel) saveCurrent() {
	m := k.m
	i := k.current()
	sb := saveBase(i)
	for j := 0; j < 6; j++ {
		m.WritePhys(sb+saveR0+Word(j), m.Reg(j))
	}
	m.WritePhys(sb+saveSP, m.AltSP())
	sp := m.Reg(machine.RegSP)
	m.WritePhys(sb+savePC, m.ReadPhys(sp))
	m.WritePhys(sb+savePSW, m.ReadPhys(sp+1))
}

// resume transfers control to regime i (or to the kernel idle loop when i
// is -1): program the MMU, reload the register file from the save area, and
// drop to user mode.
func (k *Kernel) resume(i int) {
	m := k.m
	if i != k.running {
		k.stats.Switches++
		if k.tracer != nil {
			prev := k.running
			if prev < -1 {
				prev = -1 // boot looks like a hand-off from idle
			}
			ev := obs.Event{Kind: obs.EvContextSwitch, Regime: i, Prev: prev}
			if i >= 0 {
				ev.Name = k.cfg.Regimes[i].Name
			}
			k.emit(ev)
		}
		k.running = i
	}
	m.ClearWaiting()
	if i < 0 {
		// Idle: kernel mode, priority 0, empty kernel stack, no mappings.
		for s := 0; s < machine.NumSegments; s++ {
			m.SetSeg(s, 0, 0)
		}
		m.SetPSW(machine.WithPriority(0, 0))
		m.SetReg(machine.RegSP, KStackTop)
		m.SetPC(KIdle)
		return
	}

	prev := k.current()
	m.WritePhys(KData+kdCurrent, Word(i))
	k.mapRegime(i)

	if k.cfg.Leaks.OutputCopy && prev != i {
		// Insecure: smear a digest of the outgoing regime's registers
		// into the incoming regime's partition on every switch.
		var pw Word
		for j := Word(0); j < 6; j++ {
			pw ^= m.ReadPhys(saveBase(prev) + saveR0 + j)
		}
		m.WritePhys(k.cfg.Regimes[i].Base, pw)
	}

	sb := saveBase(i)
	for j := 0; j < 6; j++ {
		if j == 5 && k.cfg.Leaks.RegisterLeak {
			// Insecure: R5 is not reloaded, so the previous regime's R5
			// value rides across the swap.
			continue
		}
		m.SetReg(j, m.ReadPhys(sb+saveR0+Word(j)))
	}
	// Enter user mode: the bank switch makes R6 the user SP slot; the
	// kernel stack pointer (now in the alternate bank) is reset to empty.
	m.SetReg(machine.RegSP, KStackTop)
	m.SetPSW(m.ReadPhys(sb+savePSW) | machine.PSWUser)
	m.SetReg(machine.RegSP, m.ReadPhys(sb+saveSP))
	m.SetPC(m.ReadPhys(sb + savePC))
}

// --- the step loop ---

// Dead reports whether the kernel has suffered an unrecoverable fault.
func (k *Kernel) Dead() bool { return k.dead }

func (k *Kernel) die(err error) {
	k.dead = true
	if k.Cause == nil {
		k.Cause = err
	}
}

// enteredVector reports which vector stub the machine has landed on, if any.
func (k *Kernel) enteredVector() (Word, bool) {
	if machine.IsUser(k.m.PSW()) {
		return 0, false
	}
	pc := k.m.PC()
	if pc >= KStubBase && pc < KIdle {
		return pc - KStubBase, true
	}
	return 0, false
}

// deliverablePending returns the lowest pending deliverable virtual
// interrupt for the current regime, which is live in user mode, or -1.
func (k *Kernel) deliverablePending() int {
	i := k.current()
	if k.regimeState(i) != StateRunnable {
		return -1
	}
	sb := saveBase(i)
	if k.m.ReadPhys(sb+saveIPL) != 0 {
		return -1
	}
	pend := k.m.ReadPhys(sb + savePending)
	if pend == 0 {
		return -1
	}
	for j := 0; j < 16; j++ {
		if pend&(1<<j) != 0 {
			return j
		}
	}
	return -1
}

// opKind names the CPU operation StepCPU performs next. next decides it;
// the adapter's COLOUR and NEXTOP only render it.
type opKind uint8

const (
	opDead     opKind = iota // the kernel died or the machine halted
	opSlice                  // fixed-slice boundary: rotate to the next regime
	opFieldIRQ               // the machine fields a device interrupt
	opDeliver                // a virtual interrupt enters the current regime
	opUser                   // the current regime executes one instruction
	opIdle                   // the kernel idle loop runs
)

// next decides the next CPU operation, in priority order. The int is the
// device's bus index for opFieldIRQ and the interrupt number for opDeliver.
func (k *Kernel) next() (opKind, int) {
	if k.dead || k.m.Halted() {
		return opDead, 0
	}
	if k.cfg.FixedSlice > 0 && k.m.ReadPhys(KData+kdSliceLeft) == 0 {
		return opSlice, 0
	}
	// Hardware interrupts outrank everything; the machine dispatches them.
	if di, ok := k.m.PendingDevice(); ok {
		return opFieldIRQ, di
	}
	if !machine.IsUser(k.m.PSW()) {
		return opIdle, 0
	}
	if j := k.deliverablePending(); j >= 0 {
		return opDeliver, j
	}
	return opUser, 0
}

// StepCPU performs one CPU operation under kernel supervision: a virtual
// interrupt delivery, or one machine instruction (including any trap that
// instruction raises, serviced atomically). Device ticking is separate
// (machine.TickDevices) so that callers modelling the paper's INPUT phase
// can drive it explicitly.
func (k *Kernel) StepCPU() {
	op, arg := k.next()
	switch op {
	case opDead:
		if !k.dead {
			k.die(fmt.Errorf("kernel: machine halted unexpectedly (fault: %v)", k.m.Fault))
		}
		return
	case opSlice:
		// Rotate unconditionally, whatever the current regime was doing.
		if machine.IsUser(k.m.PSW()) {
			k.savePreempted()
		}
		k.m.WritePhys(KData+kdParked, 0)
		k.m.WritePhys(KData+kdSliceLeft, Word(k.cfg.FixedSlice))
		k.resume(k.scheduleNext())
		return
	}
	if k.cfg.FixedSlice > 0 {
		k.m.WritePhys(KData+kdSliceLeft, k.m.ReadPhys(KData+kdSliceLeft)-1)
	}
	if op == opDeliver {
		k.deliverIRQ(k.current(), arg)
		return
	}
	k.stepMachine()
}

// stepMachine advances the machine one CPU cycle and services any kernel
// entry it produces.
func (k *Kernel) stepMachine() {
	k.m.StepCPU()
	if k.m.Halted() {
		k.die(fmt.Errorf("kernel: machine halted unexpectedly (fault: %v)", k.m.Fault))
		return
	}
	if machine.IsUser(k.m.PSW()) {
		k.stats.InstrPerRegime[k.current()]++
		return
	}
	if vec, ok := k.enteredVector(); ok {
		k.service(vec)
	}
	// Otherwise the machine is in the kernel idle loop; nothing to do.
}

// savePreempted captures the LIVE user context of the current regime (used
// where there is no trap frame: slice preemption and a failed delivery).
func (k *Kernel) savePreempted() {
	m := k.m
	sb := saveBase(k.current())
	for j := 0; j < 6; j++ {
		m.WritePhys(sb+saveR0+Word(j), m.Reg(j))
	}
	m.WritePhys(sb+saveSP, m.Reg(machine.RegSP))
	m.WritePhys(sb+savePC, m.PC())
	m.WritePhys(sb+savePSW, m.PSW())
}

// yield takes the CPU from the current regime, whose context is saved.
// Under fixed slices every exit parks: the rest of the slice burns in the
// kernel idle loop until the boundary, so no regime decides when the next
// one starts. Otherwise the next runnable regime runs at once.
func (k *Kernel) yield() {
	if k.cfg.FixedSlice > 0 {
		k.m.WritePhys(KData+kdParked, 1)
		k.resume(-1)
		return
	}
	k.resume(k.scheduleNext())
}

// Step advances the whole system one cycle: devices tick, then one CPU
// operation executes.
func (k *Kernel) Step() {
	if k.dead {
		return
	}
	k.m.TickDevices()
	k.StepCPU()
}

// Run steps n cycles (or until the kernel dies) and reports steps taken.
func (k *Kernel) Run(n int) int {
	i := 0
	for ; i < n && !k.dead; i++ {
		k.Step()
	}
	return i
}

// RunUntilIdle steps until every regime is dead or waiting (the idle loop
// is reached with nothing pending), up to max cycles.
func (k *Kernel) RunUntilIdle(max int) int {
	for i := 0; i < max; i++ {
		if k.dead {
			return i
		}
		if k.AllIdle() {
			return i
		}
		k.Step()
	}
	return max
}

// AllIdle reports whether no regime can make further progress without new
// external input.
func (k *Kernel) AllIdle() bool {
	for i := range k.cfg.Regimes {
		st := k.regimeState(i)
		if st == StateRunnable {
			return false
		}
		if st == StateWaitIRQ && k.m.ReadPhys(saveBase(i)+savePending) != 0 {
			return false
		}
	}
	_, pending := k.m.PendingDevice()
	return !pending
}

// --- kernel entry service ---

func (k *Kernel) service(vec Word) {
	sp := k.m.Reg(machine.RegSP)
	trappedPSW := k.m.ReadPhys(sp + 1)
	fromUser := machine.IsUser(trappedPSW)

	switch {
	case vec == machine.VecTRAP:
		if !fromUser {
			k.die(fmt.Errorf("kernel: TRAP from kernel mode"))
			return
		}
		k.saveCurrent()
		k.syscall()
	case vec == machine.VecIllegal:
		if !fromUser {
			k.die(fmt.Errorf("kernel: illegal instruction in kernel mode"))
			return
		}
		k.saveCurrent()
		k.illegal()
	case vec == machine.VecMMU:
		if !fromUser {
			k.die(fmt.Errorf("kernel: MMU abort in kernel mode"))
			return
		}
		k.saveCurrent()
		i := k.current()
		reason, vaddr := k.m.MMUAbort()
		k.faultRegime(i, fmt.Sprintf("MMU abort %d at vaddr %#x", reason, vaddr))
		k.yield()
	case vec >= machine.VecDevBase:
		k.stats.Interrupts++
		di := int(vec-machine.VecDevBase) / 2
		if fromUser {
			k.saveCurrent()
		}
		k.fieldInterrupt(di)
		switch {
		case fromUser:
			k.resume(k.current())
		case k.cfg.FixedSlice > 0 && k.m.ReadPhys(KData+kdParked) == 1:
			// Interrupt fielded from the parked idle loop: stay parked;
			// the slice boundary will do the scheduling.
			k.resume(-1)
		default:
			k.resume(k.scheduleFrom(k.current()))
		}
	default:
		k.die(fmt.Errorf("kernel: unexpected vector %#x", vec))
	}
}

// fieldInterrupt records a device interrupt as pending for the owning
// regime — the kernel's entire I/O responsibility, per the SUE design.
func (k *Kernel) fieldInterrupt(di int) {
	if di >= len(k.devOwner) {
		return
	}
	owner := k.devOwner[di]
	if owner < 0 {
		return // unowned device: drop
	}
	if k.cfg.Leaks.InterruptMisroute && len(k.cfg.Regimes) > 1 {
		// Insecure: interrupts are credited to the wrong regime.
		owner = (owner + 1) % len(k.cfg.Regimes)
	}
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvIRQField, Regime: owner,
			Arg: di, Name: k.m.Devices()[di].Name()})
	}
	bit := Word(1) << k.devLocal[di]
	sb := saveBase(owner)
	k.m.WritePhys(sb+savePending, k.m.ReadPhys(sb+savePending)|bit)
}

// deliverIRQ injects owned-device interrupt j into regime i, which must be
// current and in user mode: push PSW and PC on the regime's stack, mask
// further deliveries, and enter the regime's handler.
func (k *Kernel) deliverIRQ(i, j int) {
	m := k.m
	sb := saveBase(i)
	k.stats.Deliveries++
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvIRQDeliver, Regime: i,
			Arg: j, Name: k.cfg.Regimes[i].Name})
	}
	m.WritePhys(sb+savePending, m.ReadPhys(sb+savePending)&^(Word(1)<<j))

	handler, ok := k.regimeRead(i, RegimeVecBase+Word(j)*2)
	if !ok || handler == 0 {
		return // no handler installed: drop the interrupt
	}
	// The regime is live in user mode: PC/PSW/SP are the machine's.
	sp := m.Reg(machine.RegSP)
	if !k.pushVirtual(i, &sp, m.PSW()) || !k.pushVirtual(i, &sp, m.PC()) {
		k.savePreempted()
		k.faultRegime(i, "stack overflow delivering interrupt")
		k.yield()
		return
	}
	m.SetReg(machine.RegSP, sp)
	m.SetPC(handler)
	m.WritePhys(sb+saveIPL, 1)
}

// pushVirtual pushes v onto regime i's stack (vsp is updated).
func (k *Kernel) pushVirtual(i int, vsp *Word, v Word) bool {
	*vsp--
	return k.regimeWrite(i, *vsp, v)
}

// illegal handles an illegal-instruction trap from user mode. A user-mode
// RTI is reinterpreted as "return from virtual interrupt" (the regime
// thinks it is on real hardware); anything else kills the regime.
func (k *Kernel) illegal() {
	m := k.m
	i := k.current()
	sb := saveBase(i)
	pc := m.ReadPhys(sb + savePC)
	instr, ok := k.regimeRead(i, pc-1)
	if ok && machine.DecodeOp(instr) == machine.OpRTI {
		// Virtual RTI: pop PC then PSW from the regime stack.
		sp := m.ReadPhys(sb + saveSP)
		newPC, ok1 := k.regimeRead(i, sp)
		newPSW, ok2 := k.regimeRead(i, sp+1)
		if !ok1 || !ok2 {
			k.faultRegime(i, "bad stack on virtual RTI")
			k.yield()
			return
		}
		m.WritePhys(sb+savePC, newPC)
		m.WritePhys(sb+savePSW, newPSW|machine.PSWUser)
		m.WritePhys(sb+saveSP, sp+2)
		m.WritePhys(sb+saveIPL, 0)
		k.resume(i)
		return
	}
	k.faultRegime(i, fmt.Sprintf("illegal instruction %#x at %#x", instr, pc-1))
	k.yield()
}

func (k *Kernel) faultRegime(i int, reason string) {
	k.setRegimeState(i, StateDead)
	k.faults[i] = FaultInfo{Reason: reason, PC: k.m.ReadPhys(saveBase(i) + savePC)}
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvFault, Regime: i,
			Name: k.cfg.Regimes[i].Name, Detail: reason})
	}
}

// --- system calls ---

func (k *Kernel) syscall() {
	m := k.m
	i := k.current()
	sb := saveBase(i)
	code := m.TrapCode()
	k.stats.SyscallPerRegime[i]++
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvSyscallEnter, Regime: i,
			Arg: int(code), Name: TrapName(code)})
		// The exit event reads the save area after the service wrote its
		// results, whichever return path is taken. When the service
		// context-switches, the exit event follows the ctx-switch event
		// (both on the same cycle) — consumers order by emission.
		defer func() {
			k.emit(obs.Event{Kind: obs.EvSyscallExit, Regime: i,
				Arg: int(code), Name: TrapName(code),
				Value: uint64(m.ReadPhys(sb + saveR0))})
		}()
	}
	arg0 := m.ReadPhys(sb + saveR0)
	arg1 := m.ReadPhys(sb + saveR0 + 1)

	setR := func(r int, v Word) { m.WritePhys(sb+saveR0+Word(r), v) }

	switch code {
	case TrapSwap:
		k.stats.Swaps++
		k.yield()
		return
	case TrapSend:
		setR(0, k.chanSend(i, int(arg0), arg1))
	case TrapRecv:
		okFlag, v := k.chanRecv(i, int(arg0))
		setR(0, okFlag)
		setR(1, v)
	case TrapPoll:
		okFlag, n := k.chanPoll(i, int(arg0))
		setR(0, okFlag)
		setR(1, n)
	case TrapIRQOn:
		m.WritePhys(sb+saveIPL, 0)
	case TrapIRQOff:
		m.WritePhys(sb+saveIPL, 1)
	case TrapHalt:
		k.setRegimeState(i, StateDead)
		if k.tracer != nil {
			k.emit(obs.Event{Kind: obs.EvRegimeHalt, Regime: i,
				Name: k.cfg.Regimes[i].Name})
		}
		k.yield()
		return
	case TrapWaitIRQ:
		if m.ReadPhys(sb+savePending) == 0 {
			k.setRegimeState(i, StateWaitIRQ)
		}
		k.yield()
		return
	case TrapID:
		setR(0, Word(i))
	default:
		// Unknown service: report failure, keep running.
		setR(0, 0xFFFF)
	}
	k.resume(i)
}

// --- channels ---

func (k *Kernel) chanSend(regime, ci int, v Word) Word {
	if ci < 0 || ci >= len(k.cfg.Channels) {
		return 0
	}
	ch := k.cfg.Channels[ci]
	if k.cfg.Regimes[regime].Name != ch.From {
		return 0
	}
	e := k.sendEnd[ci]
	capa := k.m.ReadPhys(e.base + chCap)
	count := k.m.ReadPhys(e.hdr + chCount)
	if count >= capa {
		return 0
	}
	tail := k.m.ReadPhys(e.hdr + chTail)
	k.m.WritePhys(e.buf+tail, v)
	k.m.WritePhys(e.hdr+chTail, (tail+1)%capa)
	k.m.WritePhys(e.hdr+chCount, count+1)
	k.stats.SendPerRegime[regime]++
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvChanSend, Regime: regime, Arg: ci,
			Name: ch.Name, Value: uint64(v), Occ: int(count) + 1})
	}
	return 1
}

func (k *Kernel) chanRecv(regime, ci int) (Word, Word) {
	if ci < 0 || ci >= len(k.cfg.Channels) {
		return 0, 0
	}
	ch := k.cfg.Channels[ci]
	if k.cfg.Regimes[regime].Name != ch.To {
		return 0, 0
	}
	e := k.recvEnd[ci]
	count := k.m.ReadPhys(e.hdr + chCount)
	if count == 0 {
		return 0, 0
	}
	capa := k.m.ReadPhys(e.base + chCap)
	head := k.m.ReadPhys(e.hdr + chHead)
	v := k.m.ReadPhys(e.buf + head)
	k.m.WritePhys(e.hdr+chHead, (head+1)%capa)
	k.m.WritePhys(e.hdr+chCount, count-1)
	k.stats.RecvPerRegime[regime]++
	if k.tracer != nil {
		k.emit(obs.Event{Kind: obs.EvChanRecv, Regime: regime, Arg: ci,
			Name: ch.Name, Value: uint64(v), Occ: int(count) - 1})
	}
	return 1, v
}

func (k *Kernel) chanPoll(regime, ci int) (Word, Word) {
	if ci < 0 || ci >= len(k.cfg.Channels) {
		return 0, 0
	}
	ch := k.cfg.Channels[ci]
	switch k.cfg.Regimes[regime].Name {
	case ch.From:
		e := k.sendEnd[ci]
		return 1, k.m.ReadPhys(e.base+chCap) - k.m.ReadPhys(e.hdr+chCount)
	case ch.To:
		return 1, k.m.ReadPhys(k.recvEnd[ci].hdr + chCount)
	}
	return 0, 0
}

// --- introspection for tests, benchmarks and the model adapter ---

// CurrentRegime returns the index of the regime holding the CPU.
func (k *Kernel) CurrentRegime() int { return k.current() }

// RegimeIndex maps a regime name to its index.
func (k *Kernel) RegimeIndex(name string) int {
	for i, r := range k.cfg.Regimes {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// RegimeStateOf returns the run state of regime i.
func (k *Kernel) RegimeStateOf(i int) Word { return k.regimeState(i) }

// RegimeFault returns the fault record of regime i.
func (k *Kernel) RegimeFault(i int) FaultInfo { return k.faults[i] }

// ReadRegimeMem reads regime i's virtual memory (partition only).
func (k *Kernel) ReadRegimeMem(i int, vaddr Word) (Word, bool) {
	return k.regimeRead(i, vaddr)
}

// RegimeWord reads one word of the named regime's virtual memory; ok is
// false for an unknown regime or an address outside its partition.
func (k *Kernel) RegimeWord(name string, vaddr Word) (Word, bool) {
	i := k.RegimeIndex(name)
	if i < 0 {
		return 0, false
	}
	return k.regimeRead(i, vaddr)
}

// WriteRegimeMem writes regime i's virtual memory (partition only).
func (k *Kernel) WriteRegimeMem(i int, vaddr Word, v Word) bool {
	return k.regimeWrite(i, vaddr, v)
}

// live reports whether regime i holds the CPU in user mode: its registers
// are then the machine's, and its save area is stale.
func (k *Kernel) live(i int) bool { return i == k.current() && machine.IsUser(k.m.PSW()) }

// RegimeReg returns register r of regime i as the regime would see it:
// live machine state when live(i), its save area otherwise (whose slots
// run R0–R5, SP, PC in register order).
func (k *Kernel) RegimeReg(i, r int) Word {
	if k.live(i) {
		return k.m.Reg(r)
	}
	return k.m.ReadPhys(saveBase(i) + saveR0 + Word(r))
}

// Stats reports kernel activity counters. Like the tracer, the counters
// live outside the modelled state: they are observational only and are
// neither snapshotted nor rendered into Φ^c.
type Stats struct {
	Swaps          uint64
	Interrupts     uint64
	Deliveries     uint64
	SchedDecisions uint64 // round-robin scans performed
	Switches       uint64 // CPU hand-offs to a different regime (or idle)

	InstrPerRegime   []uint64 // user instructions executed
	SyscallPerRegime []uint64 // kernel services invoked
	SendPerRegime    []uint64 // successful channel sends
	RecvPerRegime    []uint64 // successful channel receives
}

// Stats returns activity counters accumulated since Boot.
func (k *Kernel) Stats() Stats {
	st := k.stats
	st.InstrPerRegime = append([]uint64(nil), st.InstrPerRegime...)
	st.SyscallPerRegime = append([]uint64(nil), st.SyscallPerRegime...)
	st.SendPerRegime = append([]uint64(nil), st.SendPerRegime...)
	st.RecvPerRegime = append([]uint64(nil), st.RecvPerRegime...)
	return st
}

// FillRegistry publishes the kernel's activity counters into an obs
// metrics registry (Prometheus-style names, regime labels), for export by
// tools like seprun. It adds the current point-in-time values, so use a
// fresh registry per run.
func (k *Kernel) FillRegistry(reg *obs.Registry) {
	st := k.Stats()
	reg.Counter("kernel_swaps_total").Add(st.Swaps)
	reg.Counter("kernel_interrupts_fielded_total").Add(st.Interrupts)
	reg.Counter("kernel_irq_deliveries_total").Add(st.Deliveries)
	reg.Counter("kernel_sched_decisions_total").Add(st.SchedDecisions)
	reg.Counter("kernel_context_switches_total").Add(st.Switches)
	for i, r := range k.cfg.Regimes {
		q := fmt.Sprintf("{regime=%q}", r.Name)
		reg.Counter("kernel_instructions_total" + q).Add(st.InstrPerRegime[i])
		reg.Counter("kernel_syscalls_total" + q).Add(st.SyscallPerRegime[i])
		reg.Counter("kernel_chan_sends_total" + q).Add(st.SendPerRegime[i])
		reg.Counter("kernel_chan_recvs_total" + q).Add(st.RecvPerRegime[i])
	}
}
