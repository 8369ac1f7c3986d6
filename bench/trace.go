package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/model"
)

// span is one timed interval of a traced request. Request spans carry the
// shim's per-call aggregates instead of one span per call: a randomized
// verdict makes tens of thousands of calls into the kernel.
type span struct {
	ID      int                 `json:"id"`
	Parent  int                 `json:"parent,omitempty"`
	Request int                 `json:"request"`
	Name    string              `json:"name"`
	Detail  string              `json:"detail,omitempty"`
	StartNS int64               `json:"start_ns"`
	DurNS   int64               `json:"dur_ns"`
	Calls   map[string]callStat `json:"calls,omitempty"`
}

type callStat struct {
	Count  int64 `json:"count"`
	BusyNS int64 `json:"busy_ns"`
}

// tally is a count and a sum: durations in ns, or sizes in bytes.
type tally struct{ n, sum int64 }

func (t *tally) add(v int64) { t.n++; t.sum += v }

func (t tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.sum) / float64(t.n)
}

// kernelCounts are the kernel's and machine's own activity counters,
// summed over traced requests.
type kernelCounts struct {
	instructions, swaps, syscalls uint64
	tc                            machine.TCStats
}

// kernelProbe harvests one system's counters. Kernel counters restart at
// every Boot, which Randomize performs, so the probe harvests before each
// Randomize and once more when the request ends; the translation-cache
// counters only grow, so it takes their delta.
type kernelProbe struct {
	k      *kernel.Kernel
	lastTC machine.TCStats
	into   *kernelCounts
}

func (p *kernelProbe) harvest() {
	st := p.k.Stats()
	for _, n := range st.InstrPerRegime {
		p.into.instructions += n
	}
	for _, n := range st.SyscallPerRegime {
		p.into.syscalls += n
	}
	p.into.swaps += st.Swaps
	tc := p.k.Machine().TranslationStats()
	p.into.tc.Hits += tc.Hits - p.lastTC.Hits
	p.into.tc.Misses += tc.Misses - p.lastTC.Misses
	p.into.tc.Fallbacks += tc.Fallbacks - p.lastTC.Fallbacks
	p.into.tc.Invalidations += tc.Invalidations - p.lastTC.Invalidations
	p.lastTC = tc
}

// tracer records the spans of a traced run and the totals the per-layer
// metrics are computed from. Requests run one at a time on one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // indices of open spans; stack[0] is the request

	requests int
	wall     int64     // summed request wall, ns
	walls    []float64 // per-request wall, ms
	layer    string    // model layer of the shims: "kernel" or "minisue"
	prof     profile
	kc       kernelCounts
	acc      map[string]*tally // child spans and samples by name

	// Per-request state, folded in by endRequest.
	shims  []*shim
	probes []*kernelProbe
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), acc: map[string]*tally{}}
}

func (tr *tracer) tally(name string) *tally {
	t := tr.acc[name]
	if t == nil {
		t = &tally{}
		tr.acc[name] = t
	}
	return t
}

func (tr *tracer) open(name, detail string) {
	sp := span{ID: len(tr.spans) + 1, Request: tr.requests, Name: name, Detail: detail,
		StartNS: int64(time.Since(tr.origin))}
	if len(tr.stack) > 0 {
		sp.Parent = tr.spans[tr.stack[len(tr.stack)-1]].ID
	}
	tr.stack = append(tr.stack, len(tr.spans))
	tr.spans = append(tr.spans, sp)
}

// close ends the innermost open span and returns its duration in ns.
func (tr *tracer) close() int64 {
	i := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	sp := &tr.spans[i]
	sp.DurNS = int64(time.Since(tr.origin)) - sp.StartNS
	return sp.DurNS
}

// timed runs fn as a child span of the open span and tallies its duration
// under name. Without a tracer it just runs fn.
func (tr *tracer) timed(name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	tr.open(name, "")
	fn()
	tr.tally(name).add(tr.close())
}

// beginRequest opens the span of one traced request; without a tracer it
// does nothing, as does endRequest.
func (tr *tracer) beginRequest(detail string) {
	if tr != nil {
		tr.open("request", detail)
	}
}

// endRequest closes the request span, attaches its shims' call
// aggregates and folds everything into the run totals.
func (tr *tracer) endRequest() {
	if tr == nil {
		return
	}
	i := tr.stack[0]
	for _, p := range tr.probes {
		p.harvest()
	}
	var reqProf profile
	for _, sh := range tr.shims {
		p := sh.total()
		reqProf.merge(&p)
	}
	tr.shims, tr.probes = tr.shims[:0], tr.probes[:0]
	calls := map[string]callStat{}
	for k, n := range reqProf.calls {
		if n > 0 {
			calls[tr.layer+"."+callNames[k]] = callStat{Count: n, BusyNS: reqProf.ns[k]}
		}
	}
	tr.spans[i].Calls = calls
	tr.prof.merge(&reqProf)
	wall := tr.close()
	tr.requests++
	tr.wall += wall
	tr.walls = append(tr.walls, float64(wall)/1e6)
}

// shim wraps sys for the current request; layer names the module it
// belongs to.
func (tr *tracer) shim(sys model.SharedSystem, layer string) *shim {
	tr.layer = layer
	sh := newShim(sys)
	tr.shims = append(tr.shims, sh)
	return sh
}

// kernelShim wraps a kernel adapter and also harvests its kernel and
// machine counters into the run totals.
func (tr *tracer) kernelShim(a *kernel.Adapter) *shim {
	sh := tr.shim(a, "kernel")
	p := &kernelProbe{k: a.K, lastTC: a.K.Machine().TranslationStats(), into: &tr.kc}
	sh.onRandomize = p.harvest
	tr.probes = append(tr.probes, p)
	return sh
}

// writeSpans writes every recorded span as JSON.
func (tr *tracer) writeSpans(path, workload string, seed int64) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
