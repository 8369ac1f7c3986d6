package main

// The model layers the shim sits in front of, with the calls each one
// receives from the checkers. Every workload reports every layer; a layer
// its requests never reach reads zero.
var modelLayers = []struct {
	name  string
	calls []callKind
}{
	{"kernel", []callKind{callStep, callApplyInput, callRollback, callDigest, callPerturb,
		callRandomize, callExtract, callRandomInput, callAbstract, callSched}},
	{"minisue", []callKind{callRestore, callSave, callStep, callApplyInput, callAbstract,
		callExtract, callSched, callEnumerate}},
}

// checkerSpans are the spans that run inside package separability: its
// self time is their duration minus the time spent in the wrapped system.
var checkerSpans = []string{"separability.check", "separability.shard",
	"separability.shard_write", "separability.merge_files", "watch.check"}

// watchSpans are the watch layer's individually timed calls (W3).
var watchSpans = []string{"capture_trace", "encode_trace", "regime_digests",
	"channel_stats", "check", "ledger_head", "load_trace", "classify_drift",
	"ledger_append", "status"}

// layerMetrics computes the per-layer metrics of a traced run. overhead is
// the traced median latency over the untraced one, minus 1.
func layerMetrics(tr *tracer, overhead float64) map[string]metric {
	m := map[string]metric{}
	reqs := float64(max(tr.requests, 1))
	share := func(ns int64) float64 {
		if tr.wall == 0 {
			return 0
		}
		return float64(ns) / float64(tr.wall)
	}
	perCall := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}

	for _, l := range modelLayers {
		for _, k := range l.calls {
			var p profile
			if tr.layer == l.name {
				p = tr.prof
			}
			name := l.name + "." + callNames[k]
			m[name+".calls"] = metric{float64(p.calls[k]) / reqs, "count"}
			m[name+".ns"] = metric{perCall(p.ns[k], p.calls[k]), "ns"}
			m[name+".share"] = metric{share(p.ns[k]), "ratio"}
		}
	}

	kc := tr.kc
	tcSteps := kc.tc.Hits + kc.tc.Misses + kc.tc.Fallbacks
	hitRatio := 0.0
	if tcSteps > 0 {
		hitRatio = float64(kc.tc.Hits) / float64(tcSteps)
	}
	m["machine.instructions"] = metric{float64(kc.instructions) / reqs, "count"}
	m["machine.tc_hit_ratio"] = metric{hitRatio, "ratio"}
	m["machine.tc_invalidations"] = metric{float64(kc.tc.Invalidations) / reqs, "count"}
	m["kernel.swaps"] = metric{float64(kc.swaps) / reqs, "count"}
	m["kernel.syscalls"] = metric{float64(kc.syscalls) / reqs, "count"}

	var inChecker int64
	for _, name := range checkerSpans {
		inChecker += tr.tally(name).sum
	}
	self := max(inChecker-tr.prof.busy(), 0)
	m["separability.self.ns"] = metric{float64(self) / reqs, "ns"}
	m["separability.self.share"] = metric{share(self), "ratio"}
	m["separability.shard_write.ns"] = metric{tr.tally("separability.shard_write").mean(), "ns"}
	m["separability.merge_files.ns"] = metric{tr.tally("separability.merge_files").mean(), "ns"}
	m["separability.shard_bytes"] = metric{tr.tally("shard_bytes").mean(), "B"}
	m["separability.checkpoint_bytes"] = metric{tr.tally("checkpoint_bytes").mean(), "B"}

	fromSpec := tr.tally("verifysys.from_spec")
	m["verifysys.from_spec.ns"] = metric{fromSpec.mean(), "ns"}
	m["verifysys.from_spec.share"] = metric{share(fromSpec.sum), "ratio"}

	var timed int64
	for _, name := range watchSpans {
		t := tr.tally("watch." + name)
		m["watch."+name+".ns"] = metric{t.mean(), "ns"}
		if name != "status" {
			timed += t.sum
		}
	}
	timed += fromSpec.sum
	deployments := tr.tally("watch.deployment")
	timedShare := 0.0
	if deployments.sum > 0 {
		timedShare = float64(timed) / float64(deployments.sum)
	}
	m["watch.timed.share"] = metric{timedShare, "ratio"}
	m["watch.ledger_head.ns_last"] = metric{tr.tally("ledger_head_last").mean(), "ns"}
	m["watch.trace_events"] = metric{tr.tally("trace_events").mean(), "count"}
	m["watch.ledger_bytes"] = metric{tr.tally("ledger_bytes").mean(), "B"}

	m["bench.trace_overhead.share"] = metric{overhead, "ratio"}
	return m
}
