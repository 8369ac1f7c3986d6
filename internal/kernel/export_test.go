package kernel

// ChanEndWords is one channel end as the external tests see it: the
// channel's header base, the address of the end's head, tail and count
// triple, its first ring slot, and the ring's capacity.
type ChanEndWords struct{ Base, Hdr, Buf, Cap Word }

// ChanEnds returns the sending and receiving ends the kernel built for
// channel ci.
func (k *Kernel) ChanEnds(ci int) (send, recv ChanEndWords) {
	words := func(e chanEnd) ChanEndWords {
		return ChanEndWords{e.base, e.hdr, e.buf, k.m.ReadPhys(e.base + chCap)}
	}
	return words(k.sendEnd[ci]), words(k.recvEnd[ci])
}

// Parked reports whether the current regime has given up the rest of its
// fixed slice, and SliceLeft how many cycles of the slice remain.
func (k *Kernel) Parked() bool { return k.m.ReadPhys(KData+kdParked) == 1 }

func (k *Kernel) SliceLeft() Word { return k.m.ReadPhys(KData + kdSliceLeft) }
