package kernel

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// TestServiceABI holds the services table to the kernel by trapping into it.
// Two regimes a and b share channel 0 (a->b), cut and uncut; the caller is
// a or b, R0 is a valid, an unowned or a wild channel number, R1–R5 hold
// distinct markers, and the channel is empty or holds words. For every
// table entry and for the unknown codes 9, 10 and 0x3FF, one StepCPU from
// the TRAP must leave the caller's registers as the table says:
//
//   - R0–R5 change only in the entry's WriteRegs (an unknown code changes
//     only R0, to 0xFFFF); SP is unchanged; PC is one word past the TRAP
//     for every service but HALTME;
//   - an EffConfig register holds the caller's index;
//   - on success (R0 = 1), the ChanInReg register holds the word that was at
//     the receive end's head, and the ChanOutReg register's value is the
//     word the send end queued last.
func TestServiceABI(t *testing.T) {
	codes := []Word{9, 10, 0x3FF}
	for c := range services {
		codes = append(codes, Word(c))
	}
	image := func(code Word) *asm.Image {
		im, err := asm.Assemble(Prelude + fmt.Sprintf("\t.org 0x40\nstart:\n\tTRAP #%d\n", code))
		if err != nil {
			t.Fatalf("assemble TRAP #%d: %v", code, err)
		}
		return im
	}
	swap := image(TrapSwap)

	var sends, recvs int
	for _, cut := range []bool{false, true} {
		for caller := 0; caller < 2; caller++ {
			for _, r0 := range []Word{0, 1, 0x5A5A} {
				for _, queued := range []Word{0, 3} {
					for _, code := range codes {
						images := [2]*asm.Image{swap, swap}
						images[caller] = image(code)
						s, r := checkService(t, abiCase{cut, caller, r0, queued, code}, images)
						sends += s
						recvs += r
					}
				}
			}
		}
	}
	if sends == 0 || recvs == 0 {
		t.Errorf("%d successful SENDs and %d successful RECVs: a success path went unchecked", sends, recvs)
	}
}

// abiCase is one setting of TestServiceABI: whether the channel is cut,
// which regime traps, its R0, the words queued and the service code.
type abiCase struct {
	cut              bool
	caller           int
	r0, queued, code Word
}

func (c abiCase) String() string {
	return fmt.Sprintf("cut=%v caller=%d R0=%#x queued=%d %s", c.cut, c.caller, c.r0, c.queued, TrapName(c.code))
}

// checkService runs one TRAP and checks it. sent is 1 after a successful
// SEND and recvd is 1 after a successful RECV.
func checkService(t *testing.T, c abiCase, images [2]*asm.Image) (sent, recvd int) {
	t.Helper()
	where := c.String()
	m := machine.New(0x4000)
	k, err := New(m, Config{
		Regimes: []RegimeSpec{
			{Name: "a", Base: 0x1000, Size: 0x800, Image: images[0]},
			{Name: "b", Base: 0x2000, Size: 0x800, Image: images[1]},
		},
		Channels:    []ChannelSpec{{Name: "ab", From: "a", To: "b", Capacity: 8}},
		CutChannels: c.cut,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	if c.caller == 1 {
		k.StepCPU() // a yields to b
	}
	if !k.live(c.caller) {
		t.Fatalf("%s: the caller is not live at its TRAP", where)
	}
	send, recv := k.sendEnd[0], k.recvEnd[0]
	// Uncut, the two ends are one buffer and it holds the 0xD1xx words.
	for _, q := range []struct {
		e     chanEnd
		first Word
	}{{send, 0xC100}, {recv, 0xD100}} {
		e := q.e
		for j := Word(0); j < c.queued; j++ {
			m.WritePhys(e.buf+j, q.first+j)
		}
		m.WritePhys(e.hdr+chHead, 0)
		m.WritePhys(e.hdr+chTail, c.queued)
		m.WritePhys(e.hdr+chCount, c.queued)
	}
	m.SetReg(0, c.r0)
	for r := 1; r <= 5; r++ {
		m.SetReg(r, 0x7000|Word(r)<<8|Word(r))
	}
	var before [8]Word
	for r := range before {
		before[r] = k.RegimeReg(c.caller, r)
	}
	head := m.ReadPhys(recv.buf + m.ReadPhys(recv.hdr+chHead))

	k.StepCPU()
	if k.Dead() {
		t.Fatalf("%s: kernel died: %v", where, k.Cause)
	}
	reg := func(r int) Word { return k.RegimeReg(c.caller, r) }

	fp, known := FootprintFor(c.code)
	writes := fp.WriteRegs
	if !known {
		writes = []RegWrite{{0, EffKernelOwn}}
		if reg(0) != 0xFFFF {
			t.Errorf("%s: unknown code left R0 = %#x, want 0xFFFF", where, reg(0))
		}
	}
	written := map[int]bool{}
	for _, w := range writes {
		written[w.Reg] = true
		if w.Effect == EffConfig && reg(w.Reg) != Word(c.caller) {
			t.Errorf("%s: config register R%d = %#x, want the caller's index %d", where, w.Reg, reg(w.Reg), c.caller)
		}
	}
	for r := 0; r <= 5; r++ {
		if !written[r] && reg(r) != before[r] {
			t.Errorf("%s: R%d %#x -> %#x, but the table says the service does not write it", where, r, before[r], reg(r))
		}
	}
	if reg(machine.RegSP) != before[machine.RegSP] {
		t.Errorf("%s: SP %#x -> %#x", where, before[machine.RegSP], reg(machine.RegSP))
	}
	if c.code != TrapHalt && reg(machine.RegPC) != before[machine.RegPC]+1 {
		t.Errorf("%s: PC %#x -> %#x, want one word past the TRAP", where, before[machine.RegPC], reg(machine.RegPC))
	}
	if reg(0) != 1 {
		return 0, 0
	}
	if fp.ChanInReg >= 0 {
		if got := reg(fp.ChanInReg); got != head {
			t.Errorf("%s: R%d = %#x, want the receive end's head word %#x", where, fp.ChanInReg, got, head)
		}
		recvd = 1
	}
	if fp.ChanOutReg >= 0 {
		capa := m.ReadPhys(send.base + chCap)
		last := m.ReadPhys(send.buf + (m.ReadPhys(send.hdr+chTail)+capa-1)%capa)
		if last != before[fp.ChanOutReg] {
			t.Errorf("%s: the send end queued %#x last, want R%d = %#x", where, last, fp.ChanOutReg, before[fp.ChanOutReg])
		}
		sent = 1
	}
	return sent, recvd
}

// Every kernel service code must have exactly one footprint, under its
// canonical name, and no code past the last service may have one.
func TestFootprintsCoverAllServices(t *testing.T) {
	names := map[string]Word{}
	for code := TrapSwap; code <= TrapID; code++ {
		fp, ok := FootprintFor(code)
		if !ok {
			t.Errorf("no footprint for service %s (code %d)", TrapName(code), code)
			continue
		}
		if fp.Name == "" || fp.Name != TrapName(code) {
			t.Errorf("footprint %d named %q, want %q", code, fp.Name, TrapName(code))
		}
		if prev, dup := names[fp.Name]; dup {
			t.Errorf("codes %d and %d share the name %q", prev, code, fp.Name)
		}
		names[fp.Name] = code
	}
	if len(services) != int(TrapID)+1 {
		t.Errorf("services has %d entries, want %d", len(services), int(TrapID)+1)
	}
	for _, code := range []Word{TrapID + 1, 0xFF, 0x3FF} {
		if _, ok := FootprintFor(code); ok {
			t.Errorf("FootprintFor(%d) = ok, want miss", code)
		}
		if got, want := TrapName(code), "TRAP#"+itoa(code); got != want {
			t.Errorf("TrapName(%d) = %q, want %q", code, got, want)
		}
	}
}

// The footprints must agree with the service implementations on the facts
// the static analyzer relies on: which registers each service writes, with
// which effect, and which services are channel endpoints.
func TestFootprintRegisterEffects(t *testing.T) {
	writes := func(code Word) map[int]RegEffect {
		fp, ok := FootprintFor(code)
		if !ok {
			t.Fatalf("no footprint for code %d", code)
		}
		m := map[int]RegEffect{}
		for _, w := range fp.WriteRegs {
			if _, dup := m[w.Reg]; dup {
				t.Errorf("%s writes R%d twice", fp.Name, w.Reg)
			}
			m[w.Reg] = w.Effect
		}
		return m
	}

	// syscall(): TrapSend writes R0 (status); TrapRecv writes R0 and R1;
	// TrapPoll writes R0 and R1; TrapID writes R0 from the static regime
	// index; the yielding services write no registers at all.
	if w := writes(TrapSend); len(w) != 1 || w[0] != EffKernelOwn {
		t.Errorf("SEND writes = %v, want {R0: kernel-own}", w)
	}
	if w := writes(TrapRecv); len(w) != 2 || w[0] != EffKernelOwn || w[1] != EffChannelIn {
		t.Errorf("RECV writes = %v, want {R0: kernel-own, R1: channel-in}", w)
	}
	if w := writes(TrapPoll); len(w) != 2 || w[0] != EffKernelOwn || w[1] != EffKernelOwn {
		t.Errorf("POLL writes = %v, want {R0,R1: kernel-own}", w)
	}
	if w := writes(TrapID); len(w) != 1 || w[0] != EffConfig {
		t.Errorf("WHOAMI writes = %v, want {R0: config}", w)
	}
	for _, code := range []Word{TrapSwap, TrapIRQOn, TrapIRQOff, TrapHalt, TrapWaitIRQ} {
		if w := writes(code); len(w) != 0 {
			t.Errorf("%s writes registers %v; the implementation writes none", TrapName(code), w)
		}
	}

	// Channel endpoints: exactly SEND exports R1 and RECV imports into R1.
	for code := TrapSwap; code <= TrapID; code++ {
		fp, _ := FootprintFor(code)
		wantOut, wantIn := -1, -1
		switch code {
		case TrapSend:
			wantOut = 1
		case TrapRecv:
			wantIn = 1
		}
		if fp.ChanOutReg != wantOut || fp.ChanInReg != wantIn {
			t.Errorf("%s channel regs out=%d in=%d, want out=%d in=%d",
				fp.Name, fp.ChanOutReg, fp.ChanInReg, wantOut, wantIn)
		}
	}
}
