package machine

// Printer is an output-only device: a line printer that accumulates written
// bytes into an externally observable print stream.
//
// Register map:
//
//	0 STAT  bit0 ready, bit6 interrupt enable
//	1 DATA  writing prints one byte
type Printer struct {
	name string
	busy int
	rate int
	ie   bool
	pend bool
	out  []Word
	prio int
}

// NewPrinter creates a printer that takes rate ticks per byte.
func NewPrinter(name string, rate int) *Printer {
	if rate < 1 {
		rate = 1
	}
	return &Printer{name: name, rate: rate, prio: 4}
}

// Replicate implements Replicator.
func (p *Printer) Replicate() Device {
	n := NewPrinter(p.name, p.rate)
	n.prio = p.prio
	return n
}

// Name implements Device.
func (p *Printer) Name() string { return p.name }

// Size implements Device.
func (p *Printer) Size() int { return 2 }

// Priority implements Device.
func (p *Printer) Priority() int { return p.prio }

// Reset implements Device.
func (p *Printer) Reset() {
	p.busy = 0
	p.ie = false
	p.pend = false
	p.out = nil
}

// ReadReg implements Device.
func (p *Printer) ReadReg(off int) Word {
	if off == 0 {
		var v Word
		if p.busy == 0 {
			v |= ttyStatReady
		}
		if p.ie {
			v |= ttyStatIE
		}
		return v
	}
	return 0
}

// WriteReg implements Device.
func (p *Printer) WriteReg(off int, v Word) {
	switch off {
	case 0:
		was := p.ie
		p.ie = v&ttyStatIE != 0
		if !was && p.ie && p.busy == 0 {
			p.pend = true
		}
	case 1:
		if p.busy == 0 {
			p.out = append(p.out, v)
			p.busy = p.rate
		}
	}
}

// Tick implements Device.
func (p *Printer) Tick() {
	if p.busy > 0 {
		p.busy--
		if p.busy == 0 && p.ie {
			p.pend = true
		}
	}
}

// Pending implements Device.
func (p *Printer) Pending() bool { return p.pend }

// Ack implements Device.
func (p *Printer) Ack() { p.pend = false }

// AppendOutput implements OutputSource.
func (p *Printer) AppendOutput(dst []Word) []Word { return append(dst, p.out...) }

// OutputString renders the print stream as a byte string.
func (p *Printer) OutputString() string {
	b := make([]byte, len(p.out))
	for i, w := range p.out {
		b[i] = byte(w)
	}
	return string(b)
}

// AppendState implements Device.
func (p *Printer) AppendState(dst []Word) []Word {
	dst = append(dst, Word(p.busy), boolWord(p.ie), boolWord(p.pend), Word(len(p.out)))
	return append(dst, p.out...)
}

// CheckState implements Device: four words, then as many output words as
// word 3 counts.
func (p *Printer) CheckState(ws []Word) error {
	want := 4
	if len(ws) >= want {
		want += int(ws[3])
	}
	return checkStateLen(p, ws, want)
}

// RestoreState implements Device: the print stream is copied into the
// printer's own buffer, reusing its storage.
func (p *Printer) RestoreState(ws []Word) {
	p.busy = int(ws[0])
	p.ie = ws[1] != 0
	p.pend = ws[2] != 0
	n := int(ws[3])
	p.out = append(p.out[:0], ws[4:4+n]...)
}
