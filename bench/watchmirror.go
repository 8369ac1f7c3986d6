package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/watch"
)

// maxRecordedViolations matches the watcher's cap on counterexamples per
// ledger record.
const maxRecordedViolations = 8

// mirrorDeployment re-verifies one spec-based deployment by calling the
// watch layer's public pieces in Watcher.CheckDeployment's order, each one
// timed as a child span of the open span, and appends the same record the
// watcher would. The verification itself runs through the timing shim.
func mirrorDeployment(cfg watch.Config, d watch.Deployment, tr *tracer) (*watch.Record, error) {
	led, err := watch.OpenLedger(cfg.Dir, d.Name)
	if err != nil {
		return nil, err
	}
	rec := &watch.Record{Deployment: d.Name, Spec: d.Spec, Build: cfg.Build,
		Time: time.Now().Unix(), Seed: cfg.Seed}

	var tsys, vsys *kernel.Adapter
	tr.timed("verifysys.from_spec", func() { tsys, err = verifysys.FromSpec(d.Spec) })
	if err != nil {
		return nil, fmt.Errorf("%s: building trace system: %w", d.Name, err)
	}
	var trace []obs.Event
	tr.timed("watch.capture_trace", func() {
		trace = watch.CaptureTrace(tsys, cfg.Seed, cfg.TraceSteps, cfg.InputEvery)
	})
	tr.tally("trace_events").add(int64(len(trace)))

	tr.timed("verifysys.from_spec", func() { vsys, err = verifysys.FromSpec(d.Spec) })
	if err != nil {
		return nil, fmt.Errorf("%s: building verify system: %w", d.Name, err)
	}
	sh := tr.kernelShim(vsys)
	var res *separability.Result
	tr.timed("watch.check", func() {
		res = separability.CheckRandomized(sh, separability.Options{
			Trials: cfg.Trials, StepsPerTrial: cfg.StepsPerTrial,
			Seed: cfg.Seed, InputEvery: cfg.InputEvery,
			CheckScheduling: !cfg.NoScheduling, Workers: cfg.Workers, Metrics: cfg.Metrics,
		})
	})
	rec.Trials, rec.Steps = cfg.Trials, cfg.StepsPerTrial
	rec.Passed, rec.States, rec.Checks = res.Passed(), res.States, totalChecks(res)
	for i, v := range res.Violations {
		if i == maxRecordedViolations {
			break
		}
		rec.Violations = append(rec.Violations, separability.NewViolationRecord(v))
	}

	rec.TraceSteps, rec.TraceEvents = cfg.TraceSteps, len(trace)
	tr.timed("watch.regime_digests", func() { rec.Regimes, rec.TraceDigest = watch.RegimeDigests(trace) })
	tr.timed("watch.channel_stats", func() { rec.Channels = watch.ChannelStats(trace) })
	var blob bytes.Buffer
	tr.timed("watch.encode_trace", func() { err = obs.WriteJSONL(&blob, trace) })
	if err != nil {
		return nil, err
	}

	var head *watch.Record
	tr.timed("watch.ledger_head", func() { head, err = led.Head() })
	if err != nil {
		return nil, fmt.Errorf("%s: reading ledger: %w", d.Name, err)
	}
	var prevTrace []obs.Event
	if head != nil {
		// As in the watcher, a missing or corrupt blob only degrades drift
		// location.
		tr.timed("watch.load_trace", func() { prevTrace, _ = led.LoadTrace(head) })
	}
	tr.timed("watch.classify_drift", func() { rec.Drift = watch.ClassifyDrift(head, rec, prevTrace, trace) })
	tr.timed("watch.ledger_append", func() { err = led.Append(rec, blob.Bytes()) })
	if err != nil {
		return nil, fmt.Errorf("%s: appending record: %w", d.Name, err)
	}
	return rec, nil
}
