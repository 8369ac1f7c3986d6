// Package separability implements Rushby's "Proof of Separability" as an
// executable verification technique: it checks the six conditions of the
// paper's Appendix against any system implementing the interfaces of
// package model.
//
// Two drivers are provided. CheckExhaustiveShard visits every state and
// input of an Enumerable system and verifies the conditions universally —
// for toy systems this *is* a proof, by explicit-state model checking. The
// real SM11/SUE-Go system has far too many states for that, so
// CheckRandomized verifies the conditions on sampled reachable states,
// using the system's PerturbOutside operation to construct the Φ-equivalent
// state pairs the pairwise conditions quantify over. A randomized check is
// testing rather than proof, but every violation it reports is a genuine
// one, with a counterexample.
//
// The six conditions, restated operationally (see model's package comment
// for the setting):
//
//  1. COLOUR(s)=c  ⇒ Φc(op(s)) = ABOPc(op)(Φc(s))
//     — checked as a congruence: states with equal Φc and the same
//     operation must have equal Φc afterwards.
//  2. COLOUR(s)≠c  ⇒ Φc(op(s)) = Φc(s)
//  3. Φc(s)=Φc(s') ⇒ Φc(INPUT(s,i)) = Φc(INPUT(s',i))
//  4. EXTRACT(c,i)=EXTRACT(c,i') ⇒ Φc(INPUT(s,i)) = Φc(INPUT(s,i'))
//  5. Φc(s)=Φc(s') ⇒ EXTRACT(c,OUTPUT(s)) = EXTRACT(c,OUTPUT(s'))
//  6. COLOUR(s)=COLOUR(s')=c ∧ Φc(s)=Φc(s') ⇒ NEXTOP(s)=NEXTOP(s')
//
// Condition 1's ABOPc is never materialized: if the congruence holds, the
// abstract operation exists by construction (its value on an abstract state
// is the common image), which is exactly Hoare's abstraction-function
// argument the paper appeals to.
package separability

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Condition identifies which of the six conditions a violation breaks.
// ConditionMeta flags a defect in the system's own perturbation operation
// (the checker validates it before trusting any pair), and
// ConditionSched is the scheduling-independence extension check, which is
// deliberately *not* one of the paper's six.
type Condition int

// Condition values.
const (
	ConditionMeta Condition = 0
	Condition1    Condition = 1
	Condition2    Condition = 2
	Condition3    Condition = 3
	Condition4    Condition = 4
	Condition5    Condition = 5
	Condition6    Condition = 6
	// ConditionSched is an extension, off by default. The six conditions
	// deliberately permit scheduling channels: "denial of service is not a
	// security problem" for the single-function systems the SUE serves
	// (paper, section 3). The extension requires that WHICH colour runs
	// next never depends on state outside the active colour's abstract
	// machine and the kernel's own scheduling state.
	ConditionSched Condition = 7
)

// Counts holds one count per Condition, indexed by the condition.
type Counts [ConditionSched + 1]int

// String names the condition.
func (c Condition) String() string {
	switch c {
	case ConditionMeta:
		return "meta(perturbation)"
	case ConditionSched:
		return "scheduling-independence(extension)"
	default:
		return fmt.Sprintf("condition %d", int(c))
	}
}

// Violation is one counterexample to one condition.
type Violation struct {
	Condition Condition
	Colour    model.Colour
	Op        model.OpID
	Detail    string
	Trial     int
	Step      int
	// Want and Got are FNV-1a digests (model.DigestString) of the two
	// encodings whose disagreement constitutes the violation: of the Φ^c
	// renderings for the state-congruence conditions (Meta, 1, 2, 3, 4),
	// and of the compared extracts, OpIDs or colours for conditions 5, 6
	// and the scheduling extension. Both checkers build every Violation
	// from the re-derived encodings (see violation), never from the
	// in-memory digests they compare, so the values are the same for every
	// model.Digester. They identify a counterexample across runs (package
	// witness matches replayed violations on them) without re-deriving the
	// full canonical strings.
	Want, Got uint64
}

// violation builds the Violation at (c, op, trial, step) for the two
// disagreeing encodings want and got.
func violation(cond Condition, c model.Colour, op model.OpID, trial, step int,
	want, got, detail string) Violation {
	return Violation{Condition: cond, Colour: c, Op: op, Trial: trial, Step: step,
		Want: model.DigestString(want), Got: model.DigestString(got), Detail: detail}
}

// phiViolation is violation for two Φ^c renderings; its Detail is prefix
// followed by where the renderings first differ.
func phiViolation(cond Condition, c model.Colour, op model.OpID, trial, step int,
	prefix, want, got string) Violation {
	return violation(cond, c, op, trial, step, want, got, prefix+diffDetail(want, got))
}

func (v Violation) String() string {
	return fmt.Sprintf("%s for colour %q at trial %d step %d (op %q): %s",
		v.Condition, v.Colour, v.Trial, v.Step, v.Op, v.Detail)
}

// Result accumulates the outcome of a check.
//
// Result is NOT goroutine-safe: the parallel checkers have every worker
// accumulate violations and counts into a private Result and merge the
// per-trial (or per-colour) Results on a single goroutine once the workers
// are done, which also fixes a deterministic merge order.
type Result struct {
	Violations []Violation
	// Checks counts how many instances of each condition were verified.
	Checks Counts
	// OpChecks buckets the verified condition instances by the operation
	// class of the checked state (model.OpClass of its NEXTOP), feeding the
	// metrics-guided exploration work: under-exercised operation classes
	// show up as small buckets.
	OpChecks map[string]int
	// States counts the sampled states conditions were checked at.
	States int
}

// Passed reports whether no violation was found.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// Summary renders a one-line outcome.
func (r *Result) Summary() string {
	if r.Passed() {
		return fmt.Sprintf("PASS: %d condition instances verified, 0 violations", r.totalChecks())
	}
	return fmt.Sprintf("FAIL: %d violations (first: %s)", len(r.Violations), r.Violations[0])
}

func (r *Result) add(v Violation) { r.Violations = append(r.Violations, v) }

func (r *Result) countOp(class string, n int) {
	if n == 0 {
		return
	}
	if r.OpChecks == nil {
		r.OpChecks = map[string]int{}
	}
	r.OpChecks[class] += n
}

// totalChecks sums Checks across conditions; checkState uses before/after
// totals to attribute a state's checks to its operation class, and Summary
// reports it.
func (r *Result) totalChecks() int {
	total := 0
	for _, n := range r.Checks {
		total += n
	}
	return total
}

// Merge folds other into r: violations are appended in other's order and
// check counts are summed. Like every Result method it must be called from
// one goroutine at a time; the engines merge worker-private Results in
// trial (or colour) order after the workers finish, so merged output is
// identical regardless of worker count.
func (r *Result) Merge(other *Result) {
	if other == nil {
		return
	}
	for _, v := range other.Violations {
		r.add(v)
	}
	for c, n := range other.Checks {
		r.Checks[c] += n
	}
	for class, n := range other.OpChecks {
		r.countOp(class, n)
	}
	r.States += other.States
}

// ViolatedConditions returns the distinct conditions violated.
func (r *Result) ViolatedConditions() []Condition {
	seen := map[Condition]bool{}
	var out []Condition
	for _, v := range r.Violations {
		if !seen[v.Condition] {
			seen[v.Condition] = true
			out = append(out, v.Condition)
		}
	}
	return out
}

// Options tunes a randomized check. A negative Trials, StepsPerTrial or
// MaxViolations panics rather than pass vacuously.
type Options struct {
	// Trials is the number of random reachable traces to explore (0 = 6).
	Trials int
	// StepsPerTrial is how many states along each trace are checked (0 = 60).
	StepsPerTrial int
	// Seed makes the exploration reproducible.
	Seed int64
	// MaxViolations stops the check early once this many counterexamples
	// have been collected (0 = 32).
	MaxViolations int
	// InputEvery injects a random input each time this many steps pass
	// while walking a trace (0 = 8).
	InputEvery int
	// CheckScheduling enables the scheduling-independence extension.
	CheckScheduling bool
	// Workers shards the trials across this many checker goroutines: the
	// caller's system plus Workers-1 private replicas (1 = single-threaded;
	// 0 = one worker per CPU core, runtime.GOMAXPROCS(0)).
	// Using more than one worker requires the system to implement
	// model.Replicable; non-replicable systems are checked single-threaded
	// regardless. Results are identical for every worker count.
	Workers int
	// Metrics, when non-nil, receives live progress and throughput
	// counters while the check runs (goroutine-safe; see package obs):
	//
	//	sep_trials_total, sep_states_checked_total,
	//	sep_violations_total, sep_checks_total{condition="..."},
	//	sep_checks_by_op_total{op="..."},
	//	sep_trial_seconds (histogram), and per worker
	//	sep_worker_trials_total{worker="N"},
	//	sep_worker_states_total{worker="N"},
	//	sep_worker_busy_us_total{worker="N"}.
	//
	// Metrics count the work actually performed; when MaxViolations stops
	// the deterministic merge early, the merged Result can report fewer
	// checks than the metrics (trials already run are still counted).
	// Attaching a registry never changes the Result.
	Metrics *obs.Registry
}

// trialSecondsBounds buckets per-trial wall time from 100µs to ~100s.
var trialSecondsBounds = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 100}

func (o *Options) fill() {
	if o.Trials < 0 || o.StepsPerTrial < 0 || o.MaxViolations < 0 {
		panic(fmt.Sprintf("separability: negative Options count: Trials=%d StepsPerTrial=%d MaxViolations=%d",
			o.Trials, o.StepsPerTrial, o.MaxViolations))
	}
	if o.Trials == 0 {
		o.Trials = 6
	}
	if o.StepsPerTrial == 0 {
		o.StepsPerTrial = 60
	}
	if o.MaxViolations == 0 {
		o.MaxViolations = 32
	}
	if o.InputEvery == 0 {
		o.InputEvery = 8
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// CheckRandomized verifies the six conditions on randomly sampled
// reachable states of sys.
//
// Trials are mutually independent: each runs from its own deterministically
// derived RNG stream, so they can execute in any order — or concurrently,
// when Options.Workers > 1 and sys implements model.Replicable — and the
// merged Result is byte-identical for every worker count.
func CheckRandomized(sys model.Perturbable, opt Options) *Result {
	opt.fill()
	colours := sys.Colours()
	if replicas := replicate(sys, min(opt.Workers, opt.Trials)); len(replicas) > 1 {
		return runTrialsParallel(replicas, opt, colours)
	}
	// One worker, or a system that cannot be replicated: the
	// single-threaded engine produces the same Result a pool would.
	res := &Result{}
	walk := newWalkRand()
	for trial := 0; trial < opt.Trials; trial++ {
		// Deterministic stopping rule (shared with the parallel merge):
		// stop starting trials once the merged prefix hit the cap.
		if len(res.Violations) >= opt.MaxViolations {
			break
		}
		res.Merge(runTrial(sys, walk, trial, opt, colours))
	}
	return res
}

// runTrialsParallel shards trial indices across one goroutine per replica,
// then merges the per-trial results in trial order.
func runTrialsParallel(replicas []model.Perturbable, opt Options, colours []model.Colour) *Result {
	results := make([]*Result, opt.Trials)
	walks := make([]*rand.Rand, len(replicas)) // one walk RNG per worker, reseeded per trial
	runChunks(replicas, opt.Trials, func(w int, sys model.Perturbable, trial int) {
		start := time.Now()
		if walks[w] == nil {
			walks[w] = newWalkRand()
		}
		results[trial] = runTrial(sys, walks[w], trial, opt, colours)
		if opt.Metrics != nil {
			// Per-worker throughput; the label is the pool slot.
			label := fmt.Sprintf("{worker=%q}", fmt.Sprint(w))
			opt.Metrics.Counter("sep_worker_trials_total" + label).Inc()
			opt.Metrics.Counter("sep_worker_states_total" + label).Add(uint64(results[trial].States))
			opt.Metrics.Counter("sep_worker_busy_us_total" + label).Add(uint64(time.Since(start).Microseconds()))
		}
	})
	// Merge under the deterministic stopping rule the serial engine uses.
	res := &Result{}
	for _, r := range results {
		if len(res.Violations) >= opt.MaxViolations {
			break
		}
		res.Merge(r)
	}
	return res
}

// trialSeed derives trial t's RNG seed from the user seed via a
// SplitMix64-style avalanche, so per-trial streams are uncorrelated while
// remaining a pure function of (Seed, trial).
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// runTrial explores one random reachable trace and checks every applicable
// condition along it, accumulating into a private Result. It touches only
// sys and its own RNGs, so distinct trials may run concurrently on
// distinct replicas; walk is the calling worker's walk RNG, which the trial
// reseeds.
//
// Two RNG streams are involved. The walk stream (walkTrial's, seeded from
// the trial seed) drives Randomize, the injected inputs and the per-step
// colour choice — everything that determines WHICH states get checked. Each
// step's condition sweep then draws from its own stream, seeded purely
// from (trial seed, step). The split is what makes counterexamples
// replayable: a witness that records the walk's inputs and a step's check
// seed can re-run that step's exact sweep from a restored state, with or
// without the intervening sweeps (they leave the state unchanged), and
// even over a shrunk prefix — see WalkTrial, CheckStateSeeded and package
// witness.
func runTrial(sys model.Perturbable, walk *rand.Rand, trial int, opt Options, colours []model.Colour) *Result {
	res := &Result{}
	// Live progress counter: one atomic increment per checked state, so a
	// -progress consumer sees movement inside long trials, not just
	// between them. Everything else is recorded once per trial.
	var liveStates *obs.Counter
	var start time.Time
	if opt.Metrics != nil {
		liveStates = opt.Metrics.Counter("sep_states_checked_total")
		start = time.Now()
	}
	tseed := trialSeed(opt.Seed, trial)
	// One sweep RNG per trial, reseeded at every step.
	srng := &stepRand{}
	walkTrial(sys, walk, opt, trial, colours,
		func(int, model.Input) bool { return len(res.Violations) < opt.MaxViolations },
		func(step int, c model.Colour) {
			checkState(sys, c, srng.reseed(stepSeed(tseed, step)), res, trial, step, opt)
			res.States++
			if liveStates != nil {
				liveStates.Inc()
			}
		})
	if opt.Metrics != nil {
		reg := opt.Metrics
		reg.Counter("sep_trials_total").Inc()
		if n := len(res.Violations); n > 0 {
			reg.Counter("sep_violations_total").Add(uint64(n))
		}
		for c, n := range res.Checks {
			if n > 0 {
				reg.Counter(fmt.Sprintf("sep_checks_total{condition=%q}", Condition(c).String())).Add(uint64(n))
			}
		}
		for class, n := range res.OpChecks {
			reg.Counter(fmt.Sprintf("sep_checks_by_op_total{op=%q}", class)).Add(uint64(n))
		}
		reg.Histogram("sep_trial_seconds", trialSecondsBounds).
			Observe(time.Since(start).Seconds())
	}
	return res
}

// checkState verifies every applicable condition for colour c at the
// system's current state, leaving the system state unchanged.
//
// All hot-path Φ comparisons use 64-bit in-memory digests
// (model.AbstractDigest) rather than the canonical strings; the strings are
// re-derived — by restoring the relevant states and calling Abstract — only
// on the cold path where a violation is reported, and phiViolation digests
// them. The in-memory digests are never persisted, so witnesses, shard
// records and ledgers do not depend on how a system compares Φ in memory. A digest collision could mask a real
// violation with probability ~2^-64 per comparison, which is far below the
// residual risk of sampling itself.
//
// The sweep anchors on a stateScope, so systems implementing
// model.Checkpointer pay O(words touched) per reset instead of O(state);
// the check sequence (and every RNG draw) is identical on both paths.
func checkState(sys model.Perturbable, c model.Colour, rng model.Rand,
	res *Result, trial, step int, opt Options) {

	sc := openScope(sys)
	defer sc.close()

	active := sys.Colour()
	op := sys.NextOp()
	phi0 := model.AbstractDigest(sys, c)

	// Attribute this state's verified condition instances to its operation
	// class once the sweep (including early meta-failure exits) finishes.
	checksBefore := res.totalChecks()
	defer func() {
		res.countOp(model.OpClass(sys, op), res.totalChecks()-checksBefore)
	}()

	// phiString re-derives the canonical Φc encoding of the anchor state
	// (violation reporting only; leaves the system at the anchor).
	phiString := func() string {
		sc.reset()
		return sys.Abstract(c)
	}

	// reportPhi records a Φc disagreement found by comparing in-memory
	// digests. It renders the disagreeing state the system is in, then
	// calls want to re-derive the expected rendering, which moves the
	// system (every caller resets the scope afterwards).
	reportPhi := func(cond Condition, prefix string, want func() string) {
		got := sys.Abstract(c)
		res.add(phiViolation(cond, c, op, trial, step, prefix, want(), got))
	}

	if active != c {
		// Condition 2: an operation on another's behalf must not change
		// Φc. Single-state check, no perturbation needed.
		sys.Step()
		if model.AbstractDigest(sys, c) != phi0 {
			reportPhi(Condition2, "", phiString)
		}
		res.Checks[Condition2]++
		sc.reset()
	} else {
		// Conditions 1 and 6 via a perturbed twin: Φc is preserved by
		// construction, so the twin must select the same operation and
		// produce the same abstract successor.
		sys.Step()
		phiAfter := model.AbstractDigest(sys, c)
		var colAfter model.Colour
		if opt.CheckScheduling {
			colAfter = nextDecision(sys, c)
		}
		sc.reset()

		sys.PerturbOutside(c, rng)
		if model.AbstractDigest(sys, c) != phi0 {
			reportPhi(ConditionMeta, "PerturbOutside failed to preserve Φc: ", phiString)
			res.Checks[ConditionMeta]++
			return
		}
		if sys.Colour() == c {
			op2 := sys.NextOp()
			res.Checks[Condition6]++
			if op2 != op {
				res.add(violation(Condition6, c, op, trial, step, string(op), string(op2),
					fmt.Sprintf("NEXTOP %q vs %q on Φc-equal states", op, op2)))
			}
			sys.Step()
			res.Checks[Condition1]++
			if model.AbstractDigest(sys, c) != phiAfter {
				reportPhi(Condition1, "Φc after op differs on Φc-equal states: ",
					func() string {
						sc.reset()
						sys.Step()
						return sys.Abstract(c)
					})
			} else if opt.CheckScheduling {
				// Extension: the scheduling decision that ends c's run must
				// not depend on state outside c.
				res.Checks[ConditionSched]++
				if got := nextDecision(sys, c); got != colAfter {
					res.add(violation(ConditionSched, c, op, trial, step, string(colAfter), string(got),
						fmt.Sprintf("next active colour %q vs %q after identical op", colAfter, got)))
				}
			}
		}
		sc.reset()
	}

	// Condition 5: outputs extract equal on Φc-equal states. The extracts
	// are compared as strings (they are the counterexample payload and are
	// cheap relative to Φ); only the Φ-preservation guard uses digests.
	out0 := sys.ExtractOutput(c, sys.CurrentOutput())
	sys.PerturbOutside(c, rng)
	if model.AbstractDigest(sys, c) == phi0 {
		res.Checks[Condition5]++
		if out1 := sys.ExtractOutput(c, sys.CurrentOutput()); out1 != out0 {
			res.add(violation(Condition5, c, op, trial, step, out0, out1,
				fmt.Sprintf("EXTRACT(c,OUTPUT) %q vs %q", out0, out1)))
		}
	}
	sc.reset()

	// Condition 3: same input on Φc-equal states. phiInString re-derives
	// Φc of INPUT(anchor, in) for violation reports.
	in := sys.RandomInput(rng)
	phiInString := func() string {
		sc.reset()
		sys.ApplyInput(in)
		return sys.Abstract(c)
	}
	sys.ApplyInput(in)
	phiIn := model.AbstractDigest(sys, c)
	sc.reset()
	sys.PerturbOutside(c, rng)
	if model.AbstractDigest(sys, c) == phi0 {
		sys.ApplyInput(in)
		res.Checks[Condition3]++
		if model.AbstractDigest(sys, c) != phiIn {
			reportPhi(Condition3, "Φc after INPUT differs on Φc-equal states: ", phiInString)
		}
	}
	sc.reset()

	// Condition 4: inputs with equal c-extract act equally on Φc.
	in2 := sys.RandomInputMatching(c, in, rng)
	if sys.ExtractInput(c, in) == sys.ExtractInput(c, in2) {
		sys.ApplyInput(in2)
		res.Checks[Condition4]++
		if model.AbstractDigest(sys, c) != phiIn {
			reportPhi(Condition4, "Φc after INPUT differs on EXTRACT-equal inputs: ", phiInString)
		}
		sc.reset()
	}
}

// schedSteps caps how many further operations of c the scheduling
// extension steps through to reach c's next scheduling decision.
const schedSteps = 64

// nextDecision steps sys while c stays active, at most schedSteps times,
// and returns the colour then active: the one c's next scheduling decision
// picked, or c itself when the cap runs out first.
func nextDecision(sys model.Perturbable, c model.Colour) model.Colour {
	for i := 0; i < schedSteps && sys.Colour() == c; i++ {
		sys.Step()
	}
	return sys.Colour()
}

// diffDetail renders a compact description of where two Φ encodings differ.
func diffDetail(a, b string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			lo := i - 24
			if lo < 0 {
				lo = 0
			}
			hi := i + 24
			if hi > len(a) {
				hi = len(a)
			}
			return fmt.Sprintf("first difference at byte %d: %q vs %q", i, a[lo:hi], b[lo:hi])
		}
	}
	return "equal (no difference found?)"
}
