package kernel

// The kernel service ABI, stated once. services is indexed by service code
// and is what TrapName, the service lines of Prelude and FootprintFor read;
// package staticflow builds its colour transfer functions for TRAP
// instructions from FootprintFor. TestServiceABI holds every entry to what
// the kernel does: it traps into a booted kernel and checks each claim
// against the caller's registers and the channel afterwards.
//
// A footprint is written against the CALLING regime. Every service enters
// through saveCurrent and leaves through resume, so the caller's registers
// ride across the trap through its own save area; the footprint names only
// the registers the service writes on the way and the channel endpoints.

// RegEffect classifies what a kernel-written register value reveals to the
// calling regime.
type RegEffect int

// RegEffect values.
const (
	// EffKernelOwn marks a value the kernel produced about the caller's own
	// view (a status flag, an occupancy count): it carries the caller's
	// colour.
	EffKernelOwn RegEffect = iota
	// EffConfig marks a static configuration constant (the regime index):
	// it carries the lattice bottom.
	EffConfig
	// EffChannelIn marks a datum imported from a channel peer: it is
	// relabelled at the cut endpoint, or flow-checked when channels are
	// modelled uncut.
	EffChannelIn
)

// RegWrite is one caller register a service writes on return, with the
// classification of the written value.
type RegWrite struct {
	Reg    int
	Effect RegEffect
}

// TrapFootprint is what one kernel service does to its caller's registers.
type TrapFootprint struct {
	// Name is the service's assembler-prelude mnemonic.
	Name string

	// WriteRegs are the caller registers the service writes on return; all
	// other registers ride across the trap unchanged.
	WriteRegs []RegWrite

	// ChanOutReg is the caller register whose value leaves through a
	// configured channel (-1: none) — the SEND endpoint X1. ChanInReg is
	// the register that receives a channel datum (-1: none) — the RECV
	// endpoint X2.
	ChanOutReg int
	ChanInReg  int
}

// services is the ABI table, indexed by service code. An unknown code is
// not a service: the kernel writes 0xFFFF into R0 and resumes the caller.
var services = [...]TrapFootprint{
	TrapSwap: {Name: "SWAP", ChanOutReg: -1, ChanInReg: -1},
	TrapSend: {Name: "SEND", ChanOutReg: 1, ChanInReg: -1,
		WriteRegs: []RegWrite{{0, EffKernelOwn}}},
	TrapRecv: {Name: "RECV", ChanOutReg: -1, ChanInReg: 1,
		WriteRegs: []RegWrite{{0, EffKernelOwn}, {1, EffChannelIn}}},
	TrapIRQOn:  {Name: "IRQON", ChanOutReg: -1, ChanInReg: -1},
	TrapIRQOff: {Name: "IRQOFF", ChanOutReg: -1, ChanInReg: -1},
	TrapPoll: {Name: "POLL", ChanOutReg: -1, ChanInReg: -1,
		WriteRegs: []RegWrite{{0, EffKernelOwn}, {1, EffKernelOwn}}},
	TrapHalt:    {Name: "HALTME", ChanOutReg: -1, ChanInReg: -1},
	TrapWaitIRQ: {Name: "WAITIRQ", ChanOutReg: -1, ChanInReg: -1},
	TrapID: {Name: "WHOAMI", ChanOutReg: -1, ChanInReg: -1,
		WriteRegs: []RegWrite{{0, EffConfig}}},
}

// TrapName returns the assembler-prelude mnemonic for a kernel service
// code ("SWAP", "SEND", ...), or "TRAP#n" for unknown codes.
func TrapName(code Word) string {
	if int(code) < len(services) {
		return services[code].Name
	}
	return "TRAP#" + itoa(code)
}

// itoa formats a small word without pulling fmt into the hot path.
func itoa(w Word) string {
	if w == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for w > 0 {
		i--
		buf[i] = byte('0' + w%10)
		w /= 10
	}
	return string(buf[i:])
}

// FootprintFor returns the footprint of a service code. The WriteRegs
// slice is the table's own; callers must not modify it.
func FootprintFor(code Word) (TrapFootprint, bool) {
	if int(code) < len(services) {
		return services[code], true
	}
	return TrapFootprint{}, false
}
