package machine

// The SM11 MMU divides the 16-bit virtual address space seen in user mode
// into sixteen 4K-word segments. Each segment has a word-granular physical
// base, a limit (number of mapped words, 0..4096) and an access code. Kernel
// mode bypasses translation entirely: kernel virtual addresses are physical
// addresses with full access, which is how the separation kernel protects
// itself — it simply never maps its own partition into any regime's segments.
//
// The MMU control registers are memory mapped into the I/O page (see
// iomap.go) so that, exactly as on the PDP-11, they can be protected "just
// like ordinary memory locations": a regime can touch them only if the
// kernel maps them into one of its segments, which a correct kernel never
// does.

// Segment access codes (bits 13-14 of a segment control register).
const (
	AccessNone = 0 // any reference aborts
	AccessRO   = 1 // reads allowed, writes abort
	AccessRW   = 2 // reads and writes allowed
)

const (
	// NumSegments is the number of user-mode segments.
	NumSegments = 16
	// SegmentWords is the size of each virtual segment in words.
	SegmentWords = 1 << 12

	segLimitMask   = 0x0fff
	segAccessShift = 13
)

// SegCtl packs a limit (words, 0..4096 where 0x1000 is expressed as limit
// 0xFFF+1 — use limit 0x1000 via full-segment flag below) and access code
// into a segment control word. A limit of SegmentWords is encoded as
// limit field 0 with the full-segment bit set.
const segFullBit = 1 << 12

// MakeSegCtl builds a segment control word from a limit in words
// (0..SegmentWords) and an access code.
func MakeSegCtl(limit int, access int) Word {
	if limit >= SegmentWords {
		return segFullBit | Word(access&3)<<segAccessShift
	}
	return Word(limit&segLimitMask) | Word(access&3)<<segAccessShift
}

// SegCtlLimit extracts the limit in words from a segment control word.
func SegCtlLimit(ctl Word) int {
	if ctl&segFullBit != 0 {
		return SegmentWords
	}
	return int(ctl & segLimitMask)
}

// SegCtlAccess extracts the access code from a segment control word.
func SegCtlAccess(ctl Word) int { return int(ctl>>segAccessShift) & 3 }

// MMU abort reasons, latched in the MMU status register.
const (
	MMUNoAccess   = 1 // segment access code is AccessNone
	MMUReadOnly   = 2 // write to a read-only segment
	MMULimit      = 3 // offset beyond the segment limit
	MMUBusTimeout = 4 // translated address hits no RAM and no device
)

// mmu holds the translation state for user mode.
type mmu struct {
	Base [NumSegments]Word // physical word address of each segment's start
	Ctl  [NumSegments]Word // limit | access for each segment

	// Abort status, latched on the most recent failed translation.
	AbortReason Word
	AbortVaddr  Word
}

// translate maps a user-mode virtual address to a physical address.
// write indicates the access direction. On failure it latches abort status
// and returns ok=false.
func (u *mmu) translate(vaddr Word, write bool) (Word, bool) {
	seg := vaddr >> 12
	off := vaddr & (SegmentWords - 1)
	ctl := u.Ctl[seg]
	acc := SegCtlAccess(ctl)
	switch {
	case acc == AccessNone || acc == 3:
		u.AbortReason, u.AbortVaddr = MMUNoAccess, vaddr
		return 0, false
	case write && acc == AccessRO:
		u.AbortReason, u.AbortVaddr = MMUReadOnly, vaddr
		return 0, false
	case int(off) >= SegCtlLimit(ctl):
		u.AbortReason, u.AbortVaddr = MMULimit, vaddr
		return 0, false
	}
	return u.Base[seg] + off, true
}
