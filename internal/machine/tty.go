package machine

// TTY is a serial line: a receiver fed by external input and a transmitter
// whose bytes accumulate in an externally observable output buffer. It is
// the SM11 analogue of a DL11 console interface.
//
// Register map:
//
//	0 RSTAT  bit0 ready (read), bit6 receiver interrupt enable (read/write)
//	1 RDATA  reading consumes the current input word and clears ready
//	2 XSTAT  bit0 ready (read), bit6 transmitter interrupt enable (read/write)
//	3 XDATA  writing queues one word for output
type TTY struct {
	ident

	rx      port
	rxQueue []Word // external input not yet presented
	rxData  Word   // currently presented input word
	rxReady bool
	rxDelay int // ticks until next queued word is presented
	rxRate  int // presentation interval in ticks

	tx transmitter
}

// NewTTY creates a TTY with the given name. rate is the number of ticks a
// word takes to move through either side of the interface (1 = every tick).
func NewTTY(name string, rate int) *TTY {
	if rate < 1 {
		rate = 1
	}
	return &TTY{ident: ident{name, 4}, rxRate: rate, tx: transmitter{rate: rate}}
}

// Replicate implements Replicator.
func (t *TTY) Replicate() Device {
	n := *t
	n.Reset()
	return &n
}

// Size implements Device.
func (t *TTY) Size() int { return 4 }

// Reset implements Device.
func (t *TTY) Reset() {
	*t = TTY{ident: t.ident, rxRate: t.rxRate, tx: transmitter{rate: t.tx.rate}}
}

// InjectInput implements InputSink.
func (t *TTY) InjectInput(ws []Word) { t.rxQueue = append(t.rxQueue, ws...) }

// InjectString queues the bytes of s as input words.
func (t *TTY) InjectString(s string) {
	for i := 0; i < len(s); i++ {
		t.rxQueue = append(t.rxQueue, Word(s[i]))
	}
}

// AppendOutput implements OutputSource.
func (t *TTY) AppendOutput(dst []Word) []Word { return t.tx.AppendOutput(dst) }

// OutputString renders the accumulated output as a byte string.
func (t *TTY) OutputString() string { return t.tx.OutputString() }

// ReadReg implements Device.
func (t *TTY) ReadReg(off int) Word {
	switch off {
	case 0:
		return t.rx.status(t.rxReady)
	case 1:
		t.rxReady = false
		t.rxDelay = t.rxRate
		return t.rxData
	case 2:
		return t.tx.status(t.tx.ready())
	}
	return 0
}

// WriteReg implements Device.
func (t *TTY) WriteReg(off int, v Word) {
	switch off {
	case 0:
		t.rx.control(v, t.rxReady)
	case 2:
		t.tx.control(v, t.tx.ready())
	case 3:
		t.tx.send(v)
	}
}

// Tick implements Device.
func (t *TTY) Tick() {
	t.tx.tick()
	if !t.rxReady && len(t.rxQueue) > 0 {
		if t.rxDelay > 0 {
			t.rxDelay--
		}
		if t.rxDelay == 0 {
			t.rxData = t.rxQueue[0]
			t.rxQueue = t.rxQueue[1:]
			t.rxReady = true
			t.rx.raise()
		}
	}
}

// Pending implements Device.
func (t *TTY) Pending() bool { return t.rx.pend || t.tx.pend }

// Ack implements Device: taking the interrupt clears both request latches;
// the handler learns the cause from the status registers.
func (t *TTY) Ack() {
	t.rx.Ack()
	t.tx.Ack()
}

// AppendState implements Device.
func (t *TTY) AppendState(dst []Word) []Word {
	dst = append(dst,
		boolWord(t.rxReady), boolWord(t.rx.ie), t.rxData,
		Word(t.rxDelay), Word(t.tx.busy), boolWord(t.tx.ie),
		boolWord(t.rx.pend), boolWord(t.tx.pend),
		Word(len(t.rxQueue)), Word(len(t.tx.out)))
	dst = append(dst, t.rxQueue...)
	return append(dst, t.tx.out...)
}

// CheckState implements Device: ten words, then as many queued input and
// output words as words 8 and 9 count.
func (t *TTY) CheckState(ws []Word) error {
	want := 10
	if len(ws) >= want {
		want += int(ws[8]) + int(ws[9])
	}
	return checkStateLen(t, ws, want)
}

// RestoreState implements Device: the queue and the output history are
// copied into the TTY's own buffers, reusing their storage.
func (t *TTY) RestoreState(ws []Word) {
	t.rxReady = ws[0] != 0
	t.rx.ie = ws[1] != 0
	t.rxData = ws[2]
	t.rxDelay = int(ws[3])
	t.tx.busy = int(ws[4])
	t.tx.ie = ws[5] != 0
	t.rx.pend = ws[6] != 0
	t.tx.pend = ws[7] != 0
	nq, no := int(ws[8]), int(ws[9])
	t.rxQueue = append(t.rxQueue[:0], ws[10:10+nq]...)
	t.tx.out = append(t.tx.out[:0], ws[10+nq:10+nq+no]...)
}
