package machine

// Link ends implement the dedicated point-to-point communication lines of
// the paper's distributed designs: a unidirectional word pipe whose two
// ends are devices on (usually different) machines. The pipe itself is part
// of the environment, not of either machine's state — exactly as a physical
// wire would be.

// wire is the shared queue joining a link's sending end to its receiving
// end.
type wire struct {
	buf []Word
	cap int
}

// LinkEnd is one end of a link. Its direction is fixed when NewLink makes
// it: the sending end is ready while the wire has room, the receiving end
// while the wire holds a word. Either end requests an interrupt when it is
// enabled while ready, and on each rising edge of ready seen at a tick.
//
// Register map:
//
//	0 STAT  bit0 ready, bit6 interrupt enable
//	1 DATA  sending end: writing sends one word down the wire (dropped
//	        when the wire is full); receiving end: reading consumes one
//	        word (0 when the wire is empty)
type LinkEnd struct {
	ident
	port
	w     *wire
	sends bool // the sending end
	wasR  bool // ready state at the previous tick, for edge detection
}

// NewLink creates a wire of the given capacity and returns its sending and
// its receiving end.
func NewLink(name string, capacity int) (tx, rx *LinkEnd) {
	if capacity < 1 {
		capacity = 1
	}
	w := &wire{cap: capacity}
	return &LinkEnd{ident: ident{name + ".tx", 5}, w: w, sends: true},
		&LinkEnd{ident: ident{name + ".rx", 5}, w: w}
}

func (l *LinkEnd) ready() bool {
	if l.sends {
		return len(l.w.buf) < l.w.cap
	}
	return len(l.w.buf) > 0
}

// Size implements Device.
func (l *LinkEnd) Size() int { return 2 }

// Reset implements Device. The wire itself is environment state and is not
// cleared here (resetting one machine must not erase in-flight data).
func (l *LinkEnd) Reset() { l.port, l.wasR = port{}, false }

// ReadReg implements Device.
func (l *LinkEnd) ReadReg(off int) Word {
	switch {
	case off == 0:
		return l.status(l.ready())
	case off == 1 && !l.sends && l.ready():
		v := l.w.buf[0]
		l.w.buf = l.w.buf[1:]
		return v
	}
	return 0
}

// WriteReg implements Device.
func (l *LinkEnd) WriteReg(off int, v Word) {
	switch {
	case off == 0:
		l.control(v, l.ready())
	case off == 1 && l.sends && l.ready():
		l.w.buf = append(l.w.buf, v)
	}
}

// Tick implements Device.
func (l *LinkEnd) Tick() {
	ready := l.ready()
	if ready && !l.wasR {
		l.raise()
	}
	l.wasR = ready
}

// AppendState implements Device. Only the end's latches are machine
// state; wire contents belong to the environment.
func (l *LinkEnd) AppendState(dst []Word) []Word {
	return append(dst, boolWord(l.ie), boolWord(l.pend), boolWord(l.wasR))
}

// CheckState implements Device.
func (l *LinkEnd) CheckState(ws []Word) error { return checkStateLen(l, ws, 3) }

// RestoreState implements Device.
func (l *LinkEnd) RestoreState(ws []Word) {
	l.ie = ws[0] != 0
	l.pend = ws[1] != 0
	l.wasR = ws[2] != 0
}
