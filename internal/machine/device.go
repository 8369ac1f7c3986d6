package machine

import "fmt"

// Device is a memory-mapped peripheral. Its registers occupy a contiguous
// block of the I/O page; the machine assigns the block base and an interrupt
// vector when the device is attached. SM11 has no DMA — following the SUE
// design, devices can only be reached through their registers, so the MMU
// protects them "just like ordinary memory locations" and the kernel can
// give each regime exclusive ownership of its devices by mapping only that
// regime's register blocks.
type Device interface {
	// Name identifies the device for diagnostics and snapshots.
	Name() string
	// Size is the number of Word registers the device exposes.
	Size() int
	// Reset returns the device to its power-on state.
	Reset()
	// ReadReg reads register off (0 <= off < Size).
	ReadReg(off int) Word
	// WriteReg writes register off.
	WriteReg(off int, v Word)
	// Tick advances the device by one machine cycle.
	Tick()
	// Pending reports whether the device is requesting an interrupt.
	Pending() bool
	// Priority is the device's fixed interrupt priority (1..7).
	Priority() int
	// Ack tells the device its interrupt has been taken.
	Ack()
	// AppendState appends all security-relevant device state to dst and
	// returns the extended slice; the words already in dst are left as
	// they are.
	AppendState(dst []Word) []Word
	// RestoreState is the inverse of AppendState. It copies ws into the
	// device's own buffers and keeps no reference to ws.
	RestoreState(ws []Word)
	// CheckState reports an error when ws is not a vector RestoreState
	// accepts.
	CheckState(ws []Word) error
}

// checkStateLen reports a state vector for d whose length is not want.
func checkStateLen(d Device, ws []Word, want int) error {
	if len(ws) != want {
		return fmt.Errorf("machine: device %q state has %d words, want %d", d.Name(), len(ws), want)
	}
	return nil
}

// Status register bits common to every device: bit 0 reports the
// device's ready condition and bit 6 is its read/write interrupt enable.
const (
	statReady Word = 1 << 0
	statIE    Word = 1 << 6
)

// ident is a device's fixed identity: its name and interrupt priority.
type ident struct {
	name string
	prio int
}

// Name implements Device.
func (i ident) Name() string { return i.name }

// Priority implements Device.
func (i ident) Priority() int { return i.prio }

// port is the DL11-style interrupt logic every device side shares: an
// enable bit and a request latch. The latch is set when the side becomes
// ready under an enable (raise) or when interrupts are enabled while it is
// ready (control), and cleared by Ack. Edge-latching keeps a slow handler
// from seeing an interrupt storm.
type port struct {
	ie   bool
	pend bool
}

// status renders the side's status register for the given ready condition.
func (p *port) status(ready bool) Word {
	var v Word
	if ready {
		v |= statReady
	}
	if p.ie {
		v |= statIE
	}
	return v
}

// control takes the enable bit from a status-register write; enabling a
// ready side requests an interrupt.
func (p *port) control(v Word, ready bool) {
	was := p.ie
	p.ie = v&statIE != 0
	if !was && p.ie && ready {
		p.pend = true
	}
}

// raise reports a transition to ready: it requests an interrupt when the
// side is enabled.
func (p *port) raise() {
	if p.ie {
		p.pend = true
	}
}

// Pending implements Device for single-port devices.
func (p *port) Pending() bool { return p.pend }

// Ack implements Device for single-port devices.
func (p *port) Ack() { p.pend = false }

// transmitter is an output side, shared by the TTY and the printer: a port
// that is ready while the transmitter is idle. A word written while it is
// busy is lost; one written while idle joins the externally observable
// output history and keeps it busy for rate ticks, after which it raises.
type transmitter struct {
	port
	busy int // ticks until ready again
	rate int
	out  []Word // everything transmitted since reset
}

func (t *transmitter) ready() bool { return t.busy == 0 }

// send transmits v unless the transmitter is busy.
func (t *transmitter) send(v Word) {
	if t.busy == 0 {
		t.out = append(t.out, v)
		t.busy = t.rate
	}
}

func (t *transmitter) tick() {
	if t.busy > 0 {
		t.busy--
		if t.busy == 0 {
			t.raise()
		}
	}
}

// AppendOutput implements OutputSource.
func (t *transmitter) AppendOutput(dst []Word) []Word { return append(dst, t.out...) }

// OutputString renders the output history as a byte string.
func (t *transmitter) OutputString() string {
	b := make([]byte, len(t.out))
	for i, w := range t.out {
		b[i] = byte(w)
	}
	return string(b)
}

// Replicator is implemented by devices that can manufacture a fresh,
// power-on copy of themselves with the same configuration (name, rates,
// priority). Replication is what lets a whole machine be cloned for
// parallel verification: the clone attaches replicas in the original bus
// order and then restores a Snapshot over them, which carries the dynamic
// state across. Devices wired to shared environment state (link ends)
// deliberately do not implement Replicator — a replica could not share the
// wire without coupling the clone to the original.
type Replicator interface {
	Device
	// Replicate returns the power-on copy, or nil if this instance cannot
	// be replicated.
	Replicate() Device
}

// InputSink is implemented by devices that accept stimuli from the outside
// world (the model's INPUT function delivers to these).
type InputSink interface {
	Device
	// InjectInput makes the given words available as external input.
	InjectInput(ws []Word)
}

// OutputSource is implemented by devices that emit data to the outside
// world (the model's OUTPUT function observes these).
type OutputSource interface {
	Device
	// AppendOutput appends the output emitted so far to dst and returns
	// the extended slice (nil when dst is nil and nothing was emitted).
	AppendOutput(dst []Word) []Word
}

// I/O page layout (physical word addresses). Everything at or above IOBase
// is an I/O register rather than RAM.
const (
	// IOBase is the first word address of the I/O page.
	IOBase Word = 0xF000

	// MMU control registers.
	IOSegBase Word = 0xF000 // +i: segment i physical base
	IOSegCtl  Word = 0xF010 // +i: segment i limit|access
	IOMMUStat Word = 0xF020 // latched abort reason
	IOMMUAddr Word = 0xF021 // latched abort virtual address

	// IODevBase is where device register blocks begin; blocks are assigned
	// upward from here at Attach time, rounded to 8-word boundaries.
	IODevBase Word = 0xF040
)

// Interrupt and trap vectors (physical word addresses of two-word
// [newPC, newPSW] entries). Device vectors are assigned from VecDevBase.
const (
	VecIllegal Word = 0x04 // illegal instruction or privileged op in user mode
	VecMMU     Word = 0x08 // MMU abort (user-mode access violation)
	VecTRAP    Word = 0x0C // TRAP instruction (kernel service call)
	VecDevBase Word = 0x20
)

// Handle describes an attached device's location on the bus.
type Handle struct {
	Base   Word // first word address of the register block
	Vector Word // interrupt vector assigned to the device
}
