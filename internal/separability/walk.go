package separability

import (
	"math/rand"

	"repro/internal/model"
)

// This file is the replay surface of the randomized checker: the
// primitives package witness uses to turn a Violation into a standalone,
// re-executable counterexample. The contract rests on two facts about
// runTrial, whose walk is walkTrial, the same loop WalkTrial replays:
//
//   - the walk (Randomize, injected inputs, colour choices) draws from one
//     stream seeded by the trial seed, while each step's condition sweep
//     draws from a private stream seeded by (trial seed, step); and
//   - checkState leaves the system state exactly as it found it.
//
// Together these mean the state visited at (trial, step) is a pure
// function of the walk alone, and the condition sweep performed there is a
// pure function of that state plus StepCheckSeed(seed, trial, step) —
// whether or not any other sweep ran.

// stepSeed derives the per-step condition-sweep seed from a trial seed,
// reusing the trialSeed avalanche so streams stay uncorrelated.
func stepSeed(tseed int64, step int) int64 { return trialSeed(tseed, step) }

// StepCheckSeed returns the RNG seed the randomized checker's condition
// sweep uses at (Options.Seed, trial, step). A witness records this value;
// CheckStateSeeded with the same seed reproduces the identical sweep.
func StepCheckSeed(seed int64, trial, step int) int64 {
	return stepSeed(trialSeed(seed, trial), step)
}

// stepRand is the condition sweep's RNG: a SplitMix64 generator small
// enough to reseed per step without the ~5 KB state of math/rand's default
// source. It implements model.Rand; determinism of the sweep (and of
// witness replay) depends only on its seed.
type stepRand struct{ s uint64 }

// reseed restarts the stream at seed and returns r.
func (r *stepRand) reseed(seed int64) *stepRand { r.s = uint64(seed); return r }

func (r *stepRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint32 implements model.Rand.
func (r *stepRand) Uint32() uint32 { return uint32(r.next() >> 32) }

// Intn implements model.Rand.
func (r *stepRand) Intn(n int) int {
	if n <= 0 {
		panic("separability: stepRand.Intn called with n <= 0")
	}
	return int(r.next() % uint64(n))
}

// WalkTrial re-executes the state walk of one trial — Randomize plus the
// per-step input draws — without running any condition sweeps, visiting
// exactly the states CheckRandomized checked for the same Options. visit
// is called before each step's input is applied (so at step 0 the system
// sits in the trial's start state) with the input about to be injected
// (nil on non-input steps); returning false stops the walk with the
// step's input and operation NOT yet applied.
//
// opt must be the same Options value given to CheckRandomized (defaults
// are filled identically); the walk consumes the colour draws the checker
// would, so the stream stays aligned even though no colour is checked.
func WalkTrial(sys model.Perturbable, opt Options, trial int, visit func(step int, in model.Input) bool) {
	opt.fill()
	walkTrial(sys, opt, trial, sys.Colours(), visit, nil)
}

// walkTrial is the one state walk of a randomized trial, shared by the
// checker (runTrial) and replay (WalkTrial). The walk stream, seeded from
// the trial seed, drives Randomize, the injected inputs (every
// opt.InputEvery-th step; nil otherwise) and the per-step colour choice.
// visit runs before each step's input is applied and stops the walk by
// returning false; at, when non-nil, runs after the colour draw with the
// state to be checked at that step and the drawn colour.
func walkTrial(sys model.Perturbable, opt Options, trial int, colours []model.Colour,
	visit func(step int, in model.Input) bool, at func(step int, c model.Colour)) {

	walk := rand.New(rand.NewSource(trialSeed(opt.Seed, trial)))
	sys.Randomize(walk)
	for step := 0; step < opt.StepsPerTrial; step++ {
		// Advance the input phase first so that states with freshly
		// raised device interrupts are among the states checked (the
		// interrupt-fielding operations are exactly where kernels
		// historically go wrong, and the paper's motivation for a new
		// technique).
		var in model.Input
		if step%opt.InputEvery == opt.InputEvery-1 {
			in = sys.RandomInput(walk)
		}
		if !visit(step, in) {
			return
		}
		sys.ApplyInput(in)
		c := colours[walk.Intn(len(colours))]
		if at != nil {
			at(step, c)
		}
		sys.Step()
	}
}

// CheckStateSeeded runs the per-state condition sweep for colour c at the
// system's current state, drawing perturbations from the given seed, and
// returns the violations found (stamped with trial and step for
// reporting). The system state is left unchanged. With seed =
// StepCheckSeed(opt.Seed, trial, step) and the state the walk visited at
// (trial, step), the returned violations are exactly those CheckRandomized
// recorded there.
func CheckStateSeeded(sys model.Perturbable, c model.Colour, seed int64,
	trial, step int, sched bool) []Violation {

	res := &Result{}
	checkState(sys, c, new(stepRand).reseed(seed), res, trial, step, Options{CheckScheduling: sched})
	return res.Violations
}
