package watch

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/separability"
)

// Traceable is what trace capture needs from a deployment's system: the
// checker's perturbation surface plus an event tap. kernel.Adapter
// implements it.
type Traceable interface {
	model.Perturbable
	SetTracer(obs.Tracer)
}

// CaptureTrace records the canonical deployment trace: the event stream of
// the randomized checker's trial-0 state walk (separability.WalkTrial),
// seeded by (seed, steps, inputEvery) alone. The same deployment spec
// rebuilt under the same parameters replays the identical walk and emits
// the identical events, so consecutive builds of an unchanged deployment
// produce byte-identical trace blobs — which is exactly what makes a
// digest change between builds evidence of drift rather than noise.
//
// The tracer is detached before returning, so sys can be reused (though
// watcher cycles build a fresh system per capture anyway).
func CaptureTrace(sys Traceable, seed int64, steps, inputEvery int) []obs.Event {
	var events []obs.Event
	sys.SetTracer(obs.TracerFunc(func(e obs.Event) { events = append(events, e) }))
	opt := separability.Options{Seed: seed, Trials: 1, StepsPerTrial: steps,
		InputEvery: inputEvery}
	separability.WalkTrial(sys, opt, 0, func(int, model.Input) bool { return true })
	sys.SetTracer(nil)
	return events
}

// RegimeDigests computes each regime's Φ^c trace digest — the canonical
// FNV-1a of its analyze.Project projection — plus one combined digest over
// all regimes (16 hex digits). The combined digest of two traces is equal
// exactly when every regime's projection digest, projection length and the
// regime set itself agree, making it the single number a ledger diff
// compares first.
func RegimeDigests(events []obs.Event) ([]RegimeDigest, string) {
	h := fnv.New64a()
	var out []RegimeDigest
	for _, r := range analyze.Regimes(events) {
		p := analyze.Project(events, r)
		rd := RegimeDigest{Regime: r, Events: len(p.Events),
			Digest: fmt.Sprintf("%016x", p.Digest)}
		out = append(out, rd)
		fmt.Fprintf(h, "%d:%d:%s\n", rd.Regime, rd.Events, rd.Digest)
	}
	return out, fmt.Sprintf("%016x", h.Sum64())
}

// ChannelStats counts per-channel send/receive traffic in a trace, sorted
// by channel index. A sanctioned channel whose traffic disappears between
// builds (or reappears after being cut) is the channel-regression drift
// kind.
func ChannelStats(events []obs.Event) []ChannelStat {
	byChan := map[int]*ChannelStat{}
	for _, e := range events {
		switch e.Kind {
		case obs.EvChanSend, obs.EvChanRecv:
		default:
			continue
		}
		cs := byChan[e.Arg]
		if cs == nil {
			cs = &ChannelStat{Channel: e.Arg}
			byChan[e.Arg] = cs
		}
		if e.Kind == obs.EvChanSend {
			cs.Sends++
		} else {
			cs.Recvs++
		}
	}
	out := make([]ChannelStat, 0, len(byChan))
	for _, cs := range byChan {
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}
