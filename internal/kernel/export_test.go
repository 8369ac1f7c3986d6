package kernel

import "repro/internal/model"

// GatheredDigest fingerprints a fresh gather of Φ^c, bypassing the digest
// cache: the value a cached AbstractDigest must equal.
func (a *Adapter) GatheredDigest(c model.Colour) uint64 {
	return fingerprint(a.gatherPhi(nil, c))
}
