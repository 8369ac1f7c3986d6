package machine

// Clock is a line-time clock raising a periodic interrupt.
//
// Register map:
//
//	0 CTL    bit6 interrupt enable; bit0 reads as the pending request, and
//	         writing bit0 clears it
//	1 COUNT  free-running tick counter (low 16 bits, read-only)
type Clock struct {
	ident
	port
	interval int
	left     int
	count    Word
}

// NewClock creates a clock that requests an interrupt every interval ticks.
func NewClock(name string, interval int) *Clock {
	if interval < 1 {
		interval = 1
	}
	return &Clock{ident: ident{name, 6}, interval: interval, left: interval}
}

// Replicate implements Replicator.
func (c *Clock) Replicate() Device {
	n := *c
	n.Reset()
	return &n
}

// Size implements Device.
func (c *Clock) Size() int { return 2 }

// Reset implements Device.
func (c *Clock) Reset() { *c = Clock{ident: c.ident, interval: c.interval, left: c.interval} }

// ReadReg implements Device.
func (c *Clock) ReadReg(off int) Word {
	switch off {
	case 0:
		return c.status(c.pend)
	case 1:
		return c.count
	}
	return 0
}

// WriteReg implements Device. Enabling never requests by itself: the
// clock is "ready" only while a request is already pending.
func (c *Clock) WriteReg(off int, v Word) {
	if off == 0 {
		c.control(v, false)
		if v&statReady != 0 {
			c.pend = false
		}
	}
}

// Tick implements Device.
func (c *Clock) Tick() {
	c.count++
	c.left--
	if c.left <= 0 {
		c.left = c.interval
		c.raise()
	}
}

// AppendState implements Device.
func (c *Clock) AppendState(dst []Word) []Word {
	return append(dst, Word(c.left), c.count, boolWord(c.ie), boolWord(c.pend))
}

// CheckState implements Device.
func (c *Clock) CheckState(ws []Word) error { return checkStateLen(c, ws, 4) }

// RestoreState implements Device.
func (c *Clock) RestoreState(ws []Word) {
	c.left = int(ws[0])
	c.count = ws[1]
	c.ie = ws[2] != 0
	c.pend = ws[3] != 0
}
