package main

import "time"

// The benchmark shares its host's cores, caches and memory with other
// tenants, whose load slows cache-bound code by up to 1.6x for minutes at
// a time. Ten runs of the same code then spread by 10–35%, so no bound
// tight enough to catch a regression would hold. The end-to-end times are
// therefore scaled to a reference host speed, which a probe measures
// between requests: a fixed pass of random read-modify-writes over a
// table larger than a core's L2 cache. The probe shares no code with the
// program under test, so a change to the program cannot move it, while
// it slows with the host in step with the checkers (see README.md).
const (
	probeWords = 1 << 20 // 8 MiB of uint64
	probeIters = 600_000
	// probeRefMS is the probe's median time on a quiet 2-core host: a
	// run whose probe takes this long reports its times unscaled.
	probeRefMS = 9.0
	// probeEvery spaces the probes: at most about 4% of a run.
	probeEvery = 250 * time.Millisecond
)

// hostProbe measures the host's speed during a run.
type hostProbe struct {
	table []uint64
	ms    []float64
	last  time.Time
}

func newHostProbe() *hostProbe {
	p := &hostProbe{table: make([]uint64, probeWords)}
	for i := range p.table {
		p.table[i] = uint64(i) // fault every page in before the first pass
	}
	return p
}

// measure times one pass of the probe.
func (p *hostProbe) measure() {
	start := time.Now()
	x := uint64(1)
	for range probeIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.table[x&(probeWords-1)] += x
	}
	p.last = time.Now()
	p.ms = append(p.ms, float64(p.last.Sub(start))/1e6)
}

// due measures when probeEvery has passed since the last pass.
func (p *hostProbe) due() {
	if time.Since(p.last) >= probeEvery {
		p.measure()
	}
}

// slowdown is how much slower than the reference host this run's host
// was: the median probe time over probeRefMS.
func (p *hostProbe) slowdown() float64 {
	return median(p.ms) / probeRefMS
}
