GO ?= go

.PHONY: verify race test bench bench-smoke lint fuzz-smoke trace-smoke witness-smoke flow-smoke fleet-smoke watch-smoke examples-smoke

# CI's fast gates: vet (of this module and of the benchmark module in
# bench/), gofmt over tracked Go files, build, the repository linter, the
# full test suite and every registered verdict (sepverify, about 1 s).
verify:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) build ./...
	$(GO) run ./cmd/seplint .
	$(GO) test ./...
	$(GO) run ./cmd/sepverify

# Repository-invariant linter (see internal/lint): obs stays dependency
# free, raw machine state stays behind the kernel adapter, tracing hooks
# never mutate.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/seplint .

# Short fuzzing pass over every fuzz target: assembler, CFG builder and
# value-set resolution, delta snapshots, the trace decoder, the shared
# artifact line reader (witness manifests and build ledgers), witness
# manifests, checkpoint resume and decoded kernel states. CI runs this
# target; the committed corpora seed each fuzzer, and a state captured
# from a randomized run seeds the kernel-state one. That seed is a 16 KB
# input, which the fuzzer would spend the whole pass minimizing, so that
# target runs without minimization.
fuzz-smoke:
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/staticflow -run '^$$' -fuzz FuzzBuildCFG -fuzztime 10s
	$(GO) test ./internal/staticflow -run '^$$' -fuzz FuzzVSAResolve -fuzztime 10s
	$(GO) test ./internal/machine -run '^$$' -fuzz FuzzDeltaRestore -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzReadLines -fuzztime 10s
	$(GO) test ./internal/witness -run '^$$' -fuzz FuzzWitnessRead -fuzztime 10s
	$(GO) test ./internal/separability -run '^$$' -fuzz FuzzCheckpointResume -fuzztime 10s
	$(GO) test ./internal/kernel -run '^$$' -fuzz FuzzDecodeState -fuzztime 10s -fuzzminimizetime 0

# Trace-analysis smoke (E14): replay the committed golden traces through
# septrace. The honest Physical/KernelHosted pair must be indistinguishable,
# the planted-leak trace must diverge, the open timingchan trace must
# measure a perfect scheduling channel and the fixed-slice trace a dead
# one. A live seprun pipe exercises `-trace -`. Reports land in
# trace-smoke/ for CI artifact upload.
TRACEDATA := cmd/septrace/testdata
trace-smoke:
	mkdir -p trace-smoke
	$(GO) run ./cmd/septrace diff $(TRACEDATA)/fabric_physical.jsonl $(TRACEDATA)/fabric_kernelhosted.jsonl > trace-smoke/diff-honest.txt
	grep -q 'verdict: indistinguishable' trace-smoke/diff-honest.txt
	! $(GO) run ./cmd/septrace diff $(TRACEDATA)/fabric_physical.jsonl $(TRACEDATA)/fabric_leaky.jsonl > trace-smoke/diff-leaky.txt
	grep -q 'verdict: DISTINGUISHABLE' trace-smoke/diff-leaky.txt
	$(GO) run ./cmd/septrace covert $(TRACEDATA)/timingchan_open.jsonl > trace-smoke/covert-open.txt
	grep -q 'err=0.00' trace-smoke/covert-open.txt
	$(GO) run ./cmd/septrace covert $(TRACEDATA)/timingchan_fixed.jsonl > trace-smoke/covert-fixed.txt
	grep -q 'rate=0.0000' trace-smoke/covert-fixed.txt
	$(GO) run ./cmd/seprun -steps 5000 -trace - 2> trace-smoke/seprun-report.txt | $(GO) run ./cmd/septrace project - > trace-smoke/project-live.txt
	grep -q 'regime 0:' trace-smoke/project-live.txt
	@echo "trace-smoke: all verdicts as expected"

# Witness smoke (E16): verify two leaky kernels with -witness-dir so every
# violation is captured, shrunk and stored, then replay each store from its
# artifacts alone with -require-shrink — replay must reproduce the recorded
# condition/colour/digest pair on a freshly built system, and the shrinker
# must have dropped ops overall.
# Artifacts land in witness-smoke/ for CI upload. sepverify exits 0 here:
# a planted-leak deployment's registered verdict is to be caught.
witness-smoke:
	rm -rf witness-smoke
	$(GO) run ./cmd/sepverify -target leak-RegisterLeak -seed 99 -witness-dir witness-smoke > witness-smoke-verify.txt 2>&1
	$(GO) run ./cmd/sepverify -target leak-SharedScratch -seed 99 -witness-dir witness-smoke >> witness-smoke-verify.txt 2>&1
	mv witness-smoke-verify.txt witness-smoke/verify.txt
	$(GO) run ./cmd/sepwitness -dir witness-smoke/leak-RegisterLeak -require-shrink replay
	$(GO) run ./cmd/sepwitness -dir witness-smoke/leak-SharedScratch -require-shrink replay
	@echo "witness-smoke: all witnesses replayed from artifacts"

# Flow-triage smoke (E17): capture a witness store from the RegisterLeak
# build, then run the static analyzer's triage over the honest kernel's
# residual SWAP flows against it. Exactly one flow — the R5 restore the
# planted leak realizes — must come back CONFIRMED; the passing dynamic
# check dismisses the other six as SPURIOUS and nothing may stay
# UNDECIDED. Artifacts land in flow-smoke/ for CI upload. sepverify exits
# 0 here: a planted-leak deployment's registered verdict is to be caught.
flow-smoke:
	rm -rf flow-smoke
	$(GO) run ./cmd/sepverify -target leak-RegisterLeak -seed 99 -witness-dir flow-smoke > flow-smoke-verify.txt 2>&1
	mv flow-smoke-verify.txt flow-smoke/verify.txt
	$(GO) run ./cmd/sepflow -swap -dynamic -triage -witness-dir flow-smoke/leak-RegisterLeak > flow-smoke/triage.txt
	grep -q '1 CONFIRMED, 6 SPURIOUS, 0 UNDECIDED (100% classified)' flow-smoke/triage.txt
	grep 'witness ' flow-smoke/triage.txt | grep CONFIRMED | grep -q 'r5'
	$(GO) run ./cmd/sepflow -swap -dynamic -triage > flow-smoke/triage-clean.txt
	grep -q '0 CONFIRMED, 7 SPURIOUS, 0 UNDECIDED (100% classified)' flow-smoke/triage-clean.txt
	@echo "flow-smoke: R5 restore confirmed by witness, rest spurious"

# Fleet smoke (E18): build the worker and coordinator binaries, take a
# direct exhaustive verdict on a planted-leak MiniSUE, then run a 2-shard
# sepfleet over the same target with per-chunk checkpoints and throttling,
# SIGKILL shard 0's worker once its checkpoint shows 3 folded chunks, and
# assert the coordinator restarted it, the replacement RESUMED from the
# checkpoint rather than starting over, and the merged fleet verdict is
# byte-identical to the direct run. Artifacts land in fleet-smoke/ for CI
# upload.
fleet-smoke:
	rm -rf fleet-smoke
	mkdir -p fleet-smoke/bin
	$(GO) build -o fleet-smoke/bin/sepverify ./cmd/sepverify
	$(GO) build -o fleet-smoke/bin/sepfleet ./cmd/sepfleet
	fleet-smoke/bin/sepverify -target minisue:register-leak > fleet-smoke/direct.txt
	fleet-smoke/bin/sepfleet -target minisue:register-leak -shards 2 -dir fleet-smoke/work \
		-throttle 3ms -checkpoint-every 1 -poll 50ms -kill-once 0@3 \
		> fleet-smoke/fleet.txt 2> fleet-smoke/fleet.log
	grep -q 'kill-once firing' fleet-smoke/fleet.log
	grep -q 'restarting from checkpoint' fleet-smoke/fleet.log
	grep -q 'resumed shard 0/2' fleet-smoke/work/shard-0.log
	head -1 fleet-smoke/direct.txt > fleet-smoke/direct-verdict.txt
	head -1 fleet-smoke/fleet.txt > fleet-smoke/fleet-verdict.txt
	diff fleet-smoke/direct-verdict.txt fleet-smoke/fleet-verdict.txt
	@echo "fleet-smoke: worker killed, resumed from checkpoint, merged verdict matches direct run"

# Continuous-verification smoke (E19): three sepwatch builds of the
# "honest" deployment. Build 2 re-verifies the unchanged deployment — the
# appended ledger record must carry the identical trace digest and no
# drift (idempotence). Build 3 plants SharedScratch behind the unchanged
# deployment name (-override-leak): the ledger diff must classify exactly
# one verdict flip and exactly one trace-digest drift, located down to the
# first divergent event; `sepwatch diff` re-derives the same verdict
# offline from the chained ledger alone. A final one-cycle serve run
# exercises the cycle engine end to end. Artifacts land in watch-smoke/
# for CI upload.
WATCHFLAGS := -dir watch-smoke/work -seed 7 -trials 3 -steps 50 -tracesteps 120 -log watch-smoke/events.jsonl
watch-smoke:
	rm -rf watch-smoke
	mkdir -p watch-smoke/bin
	$(GO) build -o watch-smoke/bin/sepwatch ./cmd/sepwatch
	watch-smoke/bin/sepwatch check $(WATCHFLAGS) -build build1 honest > watch-smoke/build1.txt
	grep -q 'seq=1 .* PASS' watch-smoke/build1.txt
	watch-smoke/bin/sepwatch check $(WATCHFLAGS) -build build2 honest > watch-smoke/build2.txt
	grep -q 'seq=2 .* PASS .* drift=0' watch-smoke/build2.txt
	grep -o 'digest=[0-9a-f]*' watch-smoke/build1.txt > watch-smoke/digest1.txt
	grep -o 'digest=[0-9a-f]*' watch-smoke/build2.txt > watch-smoke/digest2.txt
	diff watch-smoke/digest1.txt watch-smoke/digest2.txt
	! watch-smoke/bin/sepwatch check $(WATCHFLAGS) -build build3 -override-leak SharedScratch honest > watch-smoke/build3.txt
	grep -q 'FAIL' watch-smoke/build3.txt
	test "$$(grep -c 'drift verdict-flip' watch-smoke/build3.txt)" = 1
	test "$$(grep -c 'drift digest-drift' watch-smoke/build3.txt)" = 1
	grep -q 'diverges at event' watch-smoke/build3.txt
	! watch-smoke/bin/sepwatch diff -dir watch-smoke/work -deployment honest > watch-smoke/diff.txt
	grep -q 'drift verdict-flip' watch-smoke/diff.txt
	watch-smoke/bin/sepwatch diff -dir watch-smoke/work -deployment honest -a 1 -b 2 > watch-smoke/diff-idempotent.txt
	grep -q 'no drift' watch-smoke/diff-idempotent.txt
	watch-smoke/bin/sepwatch history -dir watch-smoke/work > watch-smoke/history.txt
	grep -q 'honest: 3 builds' watch-smoke/history.txt
	watch-smoke/bin/sepwatch serve -addr '' -cycles 1 -interval 0s \
		-dir watch-smoke/serve -seed 7 -trials 3 -steps 50 -tracesteps 120 \
		-deployments honest,leak-RegisterLeak,toy-secure > watch-smoke/serve.txt
	grep -q 'cycle 1: 3 deployments, 0 drift, 0 verdict flips, 0 errors' watch-smoke/serve.txt
	@echo "watch-smoke: idempotent re-verification clean, planted leak classified as verdict flip + digest drift"

# Examples smoke: run the examples that boot SUE-Go systems from specs and
# check one verdict line of each. Quickstart's honest pair must PASS and
# its RegisterLeak kernel FAIL; blockstore's server must deny alice's read
# of bob's slot; both timing-channel systems must PASS separability (the
# open channel is outside the six conditions, the fixed-slice one is
# closed); seprun's documented multi-program form (flags before the files)
# must boot two regimes joined by two channels, and the receiver must take
# words from the sender. Outputs land in examples-smoke/.
examples-smoke:
	rm -rf examples-smoke
	mkdir -p examples-smoke
	$(GO) run ./examples/quickstart > examples-smoke/quickstart.txt
	grep -A1 'on the honest kernel' examples-smoke/quickstart.txt | grep -q 'PASS: '
	grep -A1 'injecting the RegisterLeak bug' examples-smoke/quickstart.txt | grep -q 'FAIL: '
	$(GO) run ./examples/blockstore > examples-smoke/blockstore.txt
	grep -q 'GET slot 20  -> DENIED' examples-smoke/blockstore.txt
	$(GO) run ./examples/timingchannel > examples-smoke/timingchannel.txt
	grep -q 'Proof of Separability on that system: *PASS' examples-smoke/timingchannel.txt
	grep -q 'Proof of Separability, fixed slices: *PASS' examples-smoke/timingchannel.txt
	$(GO) run ./cmd/seprun -steps 20000 -chan 0:1 -chan 1:0 cmd/seprun/testdata/sender.s cmd/seprun/testdata/receiver.s > examples-smoke/seprun.txt
	grep -Eq '^r1 +[a-z-]+ +[0-9]+ +[0-9]+ +[0-9]+ +[1-9][0-9]* ' examples-smoke/seprun.txt
	@echo "examples-smoke: quickstart, blockstore and timing-channel verdicts as expected; seprun multi-program run received"

# Race-detector pass over the concurrent verification engine, the kernel
# adapter and MiniSUE replicas it sweeps (whose workers share the fold's
# saturation masks), the machine whose devices reuse their state buffers
# in place (no two replicas may share one), the witness store fed from
# worker results, and the observability counters they share. CI runs this
# target.
race:
	$(GO) test -race ./internal/separability/... ./internal/minisue/... ./internal/machine/... ./internal/kernel/... ./internal/witness/... ./internal/obs/... ./internal/watch/...

test:
	$(GO) test ./...

# Experiment benchmarks (E1..E15); see EXPERIMENTS.md. The results are
# also parsed into BENCH_verify.json (name, ns/op, speedup-x, workers,
# GOMAXPROCS) for machine consumption. A committed baseline lives at
# BENCH_verify.json; regenerate it with this target when the experiment
# set changes.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' | $(GO) run ./cmd/benchjson -out BENCH_verify.json

# One-iteration benchmark smoke for CI: exercises every experiment once
# and emits the same JSON schema as `make bench` without the cost of
# steady-state timing (the numbers are NOT comparable to the baseline).
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' | $(GO) run ./cmd/benchjson -out BENCH_smoke.json
