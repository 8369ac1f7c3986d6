package machine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/devices.golden")

// devOp is one step of a device script: a register read or write, an
// input injection, a tick or an interrupt acknowledgement, addressed to
// the dev'th device of the case.
type devOp struct {
	dev  int
	kind string // "rd", "wr", "in", "tick", "ack"
	off  int
	v    machine.Word
	in   []machine.Word
}

func rd(off int) devOp                 { return devOp{kind: "rd", off: off} }
func wr(off int, v machine.Word) devOp { return devOp{kind: "wr", off: off, v: v} }
func inject(ws ...machine.Word) devOp  { return devOp{kind: "in", in: ws} }
func tick() devOp                      { return devOp{kind: "tick"} }
func ack() devOp                       { return devOp{kind: "ack"} }

// on addresses op to the dev'th device of a multi-device case.
func on(dev int, op devOp) devOp { op.dev = dev; return op }

func (o devOp) String() string {
	s := fmt.Sprintf("d%d %s", o.dev, o.kind)
	switch o.kind {
	case "rd":
		s += fmt.Sprintf(" %d", o.off)
	case "wr":
		s += fmt.Sprintf(" %d=%#x", o.off, o.v)
	case "in":
		s += fmt.Sprintf(" %v", o.in)
	}
	return s
}

// ttyScript drives a TTY of the given rate: enabling the receiver while
// it is not ready requests nothing, presenting input under an enable
// latches a request, enabling the idle transmitter latches a second one,
// one Ack clears both, a word written while the transmitter is busy is
// lost, and the transmitter requests again when it goes idle.
func ttyScript(rate int) []devOp {
	s := []devOp{
		rd(0), rd(2), wr(0, 0x40), rd(0),
		inject('A', 'B', 'C'),
		tick(), rd(0),
		wr(2, 0x40), rd(2), ack(), rd(0), rd(2),
		wr(3, 'x'), wr(3, 'y'), rd(2),
	}
	for i := 0; i < rate; i++ {
		s = append(s, tick(), rd(2))
	}
	s = append(s, ack(), rd(1), rd(0), rd(3))
	for i := 0; i <= rate; i++ {
		s = append(s, tick(), rd(0))
	}
	s = append(s,
		wr(0, 0), wr(2, 0), rd(1), wr(3, 'z'),
		wr(2, 0x40), // enabling a busy transmitter requests nothing
	)
	for i := 0; i <= rate+1; i++ {
		s = append(s, tick())
	}
	s = append(s, wr(0, 0x40), rd(1), rd(1), tick(), tick(), tick(), rd(0), ack(), wr(1, 7), rd(3))
	return s
}

// printerScript drives a printer of the given rate: enabling while ready
// requests, a second write while busy is lost, enabling while busy does
// not request, and going idle under an enable does.
func printerScript(rate int) []devOp {
	s := []devOp{rd(0), wr(0, 0x40), rd(0), ack(), wr(1, 'A'), wr(1, 'B'), rd(0)}
	for i := 0; i < rate; i++ {
		s = append(s, tick(), rd(0))
	}
	s = append(s, ack(), wr(0, 0), wr(1, 'C'), wr(0, 0x40), rd(0))
	for i := 0; i < rate+1; i++ {
		s = append(s, tick())
	}
	s = append(s, rd(1), ack(), wr(0, 0), wr(0, 0x40), wr(1, 'D'), tick(), rd(0))
	return s
}

// clockScript drives a clock of interval 3: ticks under no enable request
// nothing, ticks under an enable latch the request in status bit 0, a
// bit-0 write clears it, Ack clears it, and disabling stops new requests.
func clockScript() []devOp {
	s := []devOp{rd(0), rd(1)}
	for i := 0; i < 3; i++ {
		s = append(s, tick())
	}
	s = append(s, wr(0, 0x40), rd(0))
	for i := 0; i < 3; i++ {
		s = append(s, tick(), rd(0))
	}
	s = append(s, wr(0, 0x41), rd(0), tick(), tick(), tick(), rd(0), ack(), rd(0),
		wr(0, 0x40), tick(), tick(), wr(0, 0), tick(), tick(), rd(0), rd(1))
	return s
}

// linkScript drives both ends (0 sends, 1 receives) of a link of capacity
// 2: an end requests when enabled while ready and on a rising edge of
// ready, never while ready merely stays high; a word sent into a full
// wire is dropped; reading an empty wire yields 0.
func linkScript() []devOp {
	tx, rx := func(o devOp) devOp { return on(0, o) }, func(o devOp) devOp { return on(1, o) }
	return []devOp{
		tx(rd(0)), rx(rd(0)),
		tx(tick()), rx(tick()),
		rx(wr(0, 0x40)), rx(rd(0)),
		tx(wr(0, 0x40)), tx(rd(0)), tx(ack()),
		tx(tick()),
		tx(wr(1, 1)), tx(wr(1, 2)), tx(wr(1, 3)), tx(rd(0)),
		tx(tick()), rx(tick()), rx(rd(0)), rx(ack()), rx(tick()),
		rx(rd(1)), tx(tick()), tx(tick()),
		rx(rd(1)), rx(rd(1)), rx(rd(0)), rx(tick()),
		tx(wr(1, 4)), rx(tick()), rx(ack()), rx(rd(1)),
		tx(wr(0, 0)), tx(tick()), tx(wr(0, 0x40)), tx(tick()),
		rx(wr(0, 0)), rx(wr(0, 0x40)), rx(rd(0)),
	}
}

type goldenCase struct {
	name   string
	devs   func() []machine.Device
	script []devOp
}

var goldenCases = []goldenCase{
	{"tty-rate1", func() []machine.Device { return []machine.Device{machine.NewTTY("tty", 1)} }, ttyScript(1)},
	{"tty-rate2", func() []machine.Device { return []machine.Device{machine.NewTTY("tty", 2)} }, ttyScript(2)},
	{"printer-rate1", func() []machine.Device { return []machine.Device{machine.NewPrinter("lp", 1)} }, printerScript(1)},
	{"printer-rate3", func() []machine.Device { return []machine.Device{machine.NewPrinter("lp", 3)} }, printerScript(3)},
	{"clock-interval3", func() []machine.Device { return []machine.Device{machine.NewClock("clk", 3)} }, clockScript()},
	{"link-cap2", func() []machine.Device {
		tx, rx := machine.NewLink("ln", 2)
		return []machine.Device{tx, rx}
	}, linkScript()},
}

// runGolden plays c's script and renders, after every operation, the
// value read, each device's Pending and each device's AppendState.
func runGolden(c goldenCase) string {
	devs := c.devs()
	var b strings.Builder
	for i, op := range c.script {
		d := devs[op.dev]
		read := "-"
		switch op.kind {
		case "rd":
			read = fmt.Sprintf("%#x", d.ReadReg(op.off))
		case "wr":
			d.WriteReg(op.off, op.v)
		case "in":
			d.(machine.InputSink).InjectInput(op.in)
		case "tick":
			d.Tick()
		case "ack":
			d.Ack()
		}
		fmt.Fprintf(&b, "%s %02d %-14s read=%-5s", c.name, i, op, read)
		for j, d := range devs {
			fmt.Fprintf(&b, " | d%d pend=%v state=%v", j, d.Pending(), d.AppendState(nil))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeviceBehaviourGolden pins every device kind's register semantics,
// interrupt-request timing and state layout: each case's script is
// replayed and compared, operation by operation, with
// testdata/devices.golden. Snapshots, witnesses and content IDs all carry
// these layouts, so any change here moves a persisted byte. Regenerate
// with -update only when that move is intended.
func TestDeviceBehaviourGolden(t *testing.T) {
	var all strings.Builder
	for _, c := range goldenCases {
		all.WriteString(runGolden(c))
	}
	path := filepath.Join("testdata", "devices.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(all.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the golden:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
