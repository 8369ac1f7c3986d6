package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Self-describing binary codec for snapshots, and their one encoding:
// Snapshot.Equal compares it, and witnesses persist it. It is versioned,
// length-prefixed and bounds-checked so a snapshot written by one build can
// be decoded by another (or rejected cleanly when it cannot).

const (
	wireMagic   = 0x534d3131 // "SM11"
	wireVersion = 1
)

// MarshalBinary serializes the snapshot in the self-describing wire format
// understood by DecodeSnapshot. Being the persisted format, it lists the
// cpu block field by field in a fixed order; TestCPUBlockRoundTrip fails
// when a cpu field is missing here or in DecodeSnapshot.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(wireMagic))
	w(uint32(wireVersion))
	w(s.regs[:])
	w(s.altSP)
	w(s.psw)
	w(s.mmu.Base[:])
	w(s.mmu.Ctl[:])
	w(s.mmu.AbortReason)
	w(s.mmu.AbortVaddr)
	w(boolWord(s.halted))
	w(boolWord(s.waiting))
	w(s.trapCode)
	w(uint32(len(s.RAM)))
	w(s.RAM)
	w(uint32(len(s.Devices)))
	for _, dv := range s.Devices {
		w(uint32(len(dv)))
		w(dv)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses a MarshalBinary encoding. Every length field is
// validated against the bytes remaining, so arbitrary (fuzzed) input fails
// with an error rather than a panic or an over-allocation.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := &wireReader{data: data}
	if magic := r.u32(); magic != wireMagic {
		return nil, fmt.Errorf("machine: bad snapshot magic %#x", magic)
	}
	if v := r.u32(); v != wireVersion {
		return nil, fmt.Errorf("machine: unsupported snapshot version %d", v)
	}
	s := &Snapshot{}
	for i := range s.regs {
		s.regs[i] = r.word()
	}
	s.altSP = r.word()
	s.psw = r.word()
	for i := range s.mmu.Base {
		s.mmu.Base[i] = r.word()
	}
	for i := range s.mmu.Ctl {
		s.mmu.Ctl[i] = r.word()
	}
	s.mmu.AbortReason = r.word()
	s.mmu.AbortVaddr = r.word()
	s.halted = r.word() != 0
	s.waiting = r.word() != 0
	s.trapCode = r.word()
	s.RAM = r.words(r.u32())
	ndev := r.u32()
	if r.err == nil && uint64(ndev)*4 > uint64(len(data)) {
		return nil, fmt.Errorf("machine: snapshot claims %d devices in %d bytes", ndev, len(data))
	}
	for i := uint32(0); i < ndev && r.err == nil; i++ {
		s.Devices = append(s.Devices, r.words(r.u32()))
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("machine: %d trailing bytes after snapshot", len(r.data))
	}
	return s, nil
}

// wireReader consumes little-endian fields, latching the first error so
// callers can check once at the end.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = fmt.Errorf("machine: truncated snapshot (need %d bytes, have %d)", n, len(r.data))
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) word() Word {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return Word(binary.LittleEndian.Uint16(b))
}

func (r *wireReader) words(n uint32) []Word {
	// A word costs 2 bytes on the wire; reject counts the remaining input
	// cannot possibly satisfy before allocating.
	if r.err == nil && uint64(n)*2 > uint64(len(r.data)) {
		r.err = fmt.Errorf("machine: snapshot claims %d words in %d bytes", n, len(r.data))
		return nil
	}
	b := r.take(int(n) * 2)
	if b == nil {
		return nil
	}
	out := make([]Word, n)
	for i := range out {
		out[i] = Word(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return out
}
