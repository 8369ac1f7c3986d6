package machine

// Clock is a line-time clock raising a periodic interrupt.
//
// Register map:
//
//	0 CTL    bit6 interrupt enable; writing bit0 clears the pending latch
//	1 COUNT  free-running tick counter (low 16 bits, read-only)
type Clock struct {
	name     string
	interval int
	left     int
	count    Word
	ie       bool
	pend     bool
	prio     int
}

// NewClock creates a clock that requests an interrupt every interval ticks.
func NewClock(name string, interval int) *Clock {
	if interval < 1 {
		interval = 1
	}
	return &Clock{name: name, interval: interval, left: interval, prio: 6}
}

// Replicate implements Replicator.
func (c *Clock) Replicate() Device {
	n := NewClock(c.name, c.interval)
	n.prio = c.prio
	return n
}

// Name implements Device.
func (c *Clock) Name() string { return c.name }

// Size implements Device.
func (c *Clock) Size() int { return 2 }

// Priority implements Device.
func (c *Clock) Priority() int { return c.prio }

// Reset implements Device.
func (c *Clock) Reset() {
	c.left = c.interval
	c.count = 0
	c.ie = false
	c.pend = false
}

// ReadReg implements Device.
func (c *Clock) ReadReg(off int) Word {
	switch off {
	case 0:
		var v Word
		if c.ie {
			v |= ttyStatIE
		}
		if c.pend {
			v |= ttyStatReady
		}
		return v
	case 1:
		return c.count
	}
	return 0
}

// WriteReg implements Device.
func (c *Clock) WriteReg(off int, v Word) {
	if off == 0 {
		c.ie = v&ttyStatIE != 0
		if v&ttyStatReady != 0 {
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
		if c.ie {
			c.pend = true
		}
	}
}

// Pending implements Device.
func (c *Clock) Pending() bool { return c.pend }

// Ack implements Device.
func (c *Clock) Ack() { c.pend = false }

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
