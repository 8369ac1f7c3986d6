package machine

// Printer is an output-only device: a line printer that accumulates written
// bytes into an externally observable print stream.
//
// Register map:
//
//	0 STAT  bit0 ready, bit6 interrupt enable
//	1 DATA  writing prints one byte
type Printer struct {
	ident
	transmitter
}

// NewPrinter creates a printer that takes rate ticks per byte.
func NewPrinter(name string, rate int) *Printer {
	if rate < 1 {
		rate = 1
	}
	return &Printer{ident{name, 4}, transmitter{rate: rate}}
}

// Replicate implements Replicator.
func (p *Printer) Replicate() Device {
	n := *p
	n.Reset()
	return &n
}

// Size implements Device.
func (p *Printer) Size() int { return 2 }

// Reset implements Device.
func (p *Printer) Reset() { p.transmitter = transmitter{rate: p.rate} }

// ReadReg implements Device.
func (p *Printer) ReadReg(off int) Word {
	if off == 0 {
		return p.status(p.ready())
	}
	return 0
}

// WriteReg implements Device.
func (p *Printer) WriteReg(off int, v Word) {
	switch off {
	case 0:
		p.control(v, p.ready())
	case 1:
		p.send(v)
	}
}

// Tick implements Device.
func (p *Printer) Tick() { p.tick() }

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
