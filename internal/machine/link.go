package machine

// Link endpoints implement the dedicated point-to-point communication lines
// of the paper's distributed designs: a unidirectional word pipe whose two
// ends are devices on (usually different) machines. The pipe itself is part
// of the environment, not of either machine's state — exactly as a physical
// wire would be.

// wire is the shared queue joining a LinkTX to a LinkRX.
type wire struct {
	buf []Word
	cap int
}

// LinkTX is the sending end of a link.
//
// Register map:
//
//	0 STAT  bit0 ready (wire not full), bit6 interrupt enable
//	1 DATA  writing sends one word down the wire
type LinkTX struct {
	name string
	w    *wire
	ie   bool
	pend bool
	wasR bool // ready state at the previous tick, for edge detection
	prio int
}

// LinkRX is the receiving end of a link.
//
// Register map:
//
//	0 STAT  bit0 ready (word available), bit6 interrupt enable
//	1 DATA  reading consumes one word from the wire
type LinkRX struct {
	name string
	w    *wire
	ie   bool
	pend bool
	wasR bool
	prio int
}

// NewLink creates a wire of the given capacity and returns its two ends.
func NewLink(name string, capacity int) (*LinkTX, *LinkRX) {
	if capacity < 1 {
		capacity = 1
	}
	w := &wire{cap: capacity}
	return &LinkTX{name: name + ".tx", w: w, prio: 5},
		&LinkRX{name: name + ".rx", w: w, prio: 5}
}

// --- LinkTX ---

// Name implements Device.
func (l *LinkTX) Name() string { return l.name }

// Size implements Device.
func (l *LinkTX) Size() int { return 2 }

// Priority implements Device.
func (l *LinkTX) Priority() int { return l.prio }

// Reset implements Device. The wire itself is environment state and is not
// cleared here (resetting one machine must not erase in-flight data).
func (l *LinkTX) Reset() { l.ie = false; l.pend = false; l.wasR = false }

// ReadReg implements Device.
func (l *LinkTX) ReadReg(off int) Word {
	if off == 0 {
		var v Word
		if len(l.w.buf) < l.w.cap {
			v |= ttyStatReady
		}
		if l.ie {
			v |= ttyStatIE
		}
		return v
	}
	return 0
}

// WriteReg implements Device.
func (l *LinkTX) WriteReg(off int, v Word) {
	switch off {
	case 0:
		was := l.ie
		l.ie = v&ttyStatIE != 0
		if !was && l.ie && len(l.w.buf) < l.w.cap {
			l.pend = true
		}
	case 1:
		if len(l.w.buf) < l.w.cap {
			l.w.buf = append(l.w.buf, v)
		}
	}
}

// Tick implements Device.
func (l *LinkTX) Tick() {
	ready := len(l.w.buf) < l.w.cap
	if ready && !l.wasR && l.ie {
		l.pend = true
	}
	l.wasR = ready
}

// Pending implements Device.
func (l *LinkTX) Pending() bool { return l.pend }

// Ack implements Device.
func (l *LinkTX) Ack() { l.pend = false }

// AppendState implements Device. Only the endpoint latches are machine
// state; wire contents belong to the environment.
func (l *LinkTX) AppendState(dst []Word) []Word {
	return append(dst, boolWord(l.ie), boolWord(l.pend), boolWord(l.wasR))
}

// CheckState implements Device.
func (l *LinkTX) CheckState(ws []Word) error { return checkStateLen(l, ws, 3) }

// RestoreState implements Device.
func (l *LinkTX) RestoreState(ws []Word) {
	l.ie = ws[0] != 0
	l.pend = ws[1] != 0
	l.wasR = ws[2] != 0
}

// --- LinkRX ---

// Name implements Device.
func (l *LinkRX) Name() string { return l.name }

// Size implements Device.
func (l *LinkRX) Size() int { return 2 }

// Priority implements Device.
func (l *LinkRX) Priority() int { return l.prio }

// Reset implements Device.
func (l *LinkRX) Reset() { l.ie = false; l.pend = false; l.wasR = false }

// ReadReg implements Device.
func (l *LinkRX) ReadReg(off int) Word {
	switch off {
	case 0:
		var v Word
		if len(l.w.buf) > 0 {
			v |= ttyStatReady
		}
		if l.ie {
			v |= ttyStatIE
		}
		return v
	case 1:
		if len(l.w.buf) > 0 {
			v := l.w.buf[0]
			l.w.buf = l.w.buf[1:]
			return v
		}
		return 0
	}
	return 0
}

// WriteReg implements Device.
func (l *LinkRX) WriteReg(off int, v Word) {
	if off == 0 {
		was := l.ie
		l.ie = v&ttyStatIE != 0
		if !was && l.ie && len(l.w.buf) > 0 {
			l.pend = true
		}
	}
}

// Tick implements Device.
func (l *LinkRX) Tick() {
	ready := len(l.w.buf) > 0
	if ready && !l.wasR && l.ie {
		l.pend = true
	}
	l.wasR = ready
}

// Pending implements Device.
func (l *LinkRX) Pending() bool { return l.pend }

// Ack implements Device.
func (l *LinkRX) Ack() { l.pend = false }

// AppendState implements Device.
func (l *LinkRX) AppendState(dst []Word) []Word {
	return append(dst, boolWord(l.ie), boolWord(l.pend), boolWord(l.wasR))
}

// CheckState implements Device.
func (l *LinkRX) CheckState(ws []Word) error { return checkStateLen(l, ws, 3) }

// RestoreState implements Device.
func (l *LinkRX) RestoreState(ws []Word) {
	l.ie = ws[0] != 0
	l.pend = ws[1] != 0
	l.wasR = ws[2] != 0
}
