package kernel

import "math/bits"

// fingerprint is the in-memory comparison value of a gathered Φ^c vector
// (see gatherPhi): an xxh64-style multiply hash with four independent
// lanes, packing four 16-bit words into each 64-bit step, finished by the
// xxh64 avalanche. It is fixed and unseeded, so equal vectors give equal
// fingerprints in every process, worker and run. Unequal vectors collide
// with probability about 2^-64, the same caveat the FNV digest of the
// rendering carried. The value never leaves the process: everything
// persisted is the FNV digest of the rendering.
func fingerprint(ws []Word) uint64 {
	const (
		p1 uint64 = 11400714785074694791
		p2 uint64 = 14029467366897019727
		p3 uint64 = 1609587929392839161
		p4 uint64 = 9650029242287828579
		p5 uint64 = 2870177450012600261
		// The lane seeds p1+p2 and -p1, reduced mod 2^64.
		s1 uint64 = 6983438078262162902
		s4 uint64 = 7046029288634856825
	)
	round := func(acc, in uint64) uint64 {
		return bits.RotateLeft64(acc+in*p2, 31) * p1
	}
	pack := func(w []Word) uint64 {
		return uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48
	}
	n := uint64(len(ws))
	var h uint64
	if len(ws) >= 16 {
		v1, v2, v3, v4 := s1, p2, uint64(0), s4
		for ; len(ws) >= 16; ws = ws[16:] {
			v1 = round(v1, pack(ws[0:4]))
			v2 = round(v2, pack(ws[4:8]))
			v3 = round(v3, pack(ws[8:12]))
			v4 = round(v4, pack(ws[12:16]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^round(0, v))*p1 + p4
		}
	} else {
		h = p5
	}
	h += n
	for ; len(ws) >= 4; ws = ws[4:] {
		h = bits.RotateLeft64(h^round(0, pack(ws)), 27)*p1 + p4
	}
	for _, w := range ws {
		h = bits.RotateLeft64(h^uint64(w)*p5, 11) * p1
	}
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	h ^= h >> 32
	return h
}
