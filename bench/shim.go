package main

import (
	"sync"
	"time"

	"repro/internal/model"
)

// callKind groups the model-boundary calls the shim times. Each kind
// becomes a `<layer>.<kind>.{calls,ns,share}` per-layer metric.
type callKind int

const (
	callStep        callKind = iota // Step
	callApplyInput                  // ApplyInput
	callRollback                    // Checkpoint, Rollback, Release, DirtyColours
	callDigest                      // AbstractDigest served by the system's Digester
	callAbstract                    // Abstract, and AbstractDigest without a Digester
	callPerturb                     // PerturbOutside
	callRandomize                   // Randomize
	callExtract                     // ExtractInput, ExtractOutput, CurrentOutput
	callRandomInput                 // RandomInput, RandomInputMatching
	callSched                       // Colour, NextOp, ClassifyOp, Colours
	callRestore                     // Restore
	callSave                        // Save, Clone
	callEnumerate                   // EnumerateStates, EnumerateInputs
	numCalls
)

var callNames = [numCalls]string{
	"step", "apply_input", "rollback", "digest", "abstract", "perturb",
	"randomize", "extract", "random_input", "sched", "restore", "save",
	"enumerate",
}

// profile accumulates call counts and busy time per call kind.
type profile struct {
	calls [numCalls]int64
	ns    [numCalls]int64
}

func (p *profile) add(k callKind, start time.Time) {
	p.calls[k]++
	p.ns[k] += int64(time.Since(start))
}

func (p *profile) merge(o *profile) {
	for k := range p.calls {
		p.calls[k] += o.calls[k]
		p.ns[k] += o.ns[k]
	}
}

// busy is the total time spent inside the wrapped system.
func (p *profile) busy() int64 {
	var t int64
	for _, ns := range p.ns {
		t += ns
	}
	return t
}

// shim wraps a system under check and times every call the checker makes
// into it. It implements every model interface the checkers look for and
// behaves exactly like the inner system where the inner lacks one:
// Checkpoint returns nil, Clone returns an untyped nil, DirtyColours
// declines, and AbstractDigest and ClassifyOp fall back to
// model.AbstractDigest and model.OpClass semantics. The checkers therefore
// take the same paths, and reach the same verdicts, with and without it.
type shim struct {
	inner model.SharedSystem
	pert  model.Perturbable
	enum  model.Enumerable
	ckp   model.Checkpointer
	dirty model.DirtyTracker
	dig   model.Digester
	rep   model.Replicable

	// onRandomize, when set, runs untimed before each Randomize; the kernel
	// counters use it because Randomize reboots the kernel.
	onRandomize func()

	prof profile

	// Clones are created on checker worker goroutines; their profiles are
	// folded in by total once the check has returned.
	mu     sync.Mutex
	clones []*shim
}

func newShim(sys model.SharedSystem) *shim {
	s := &shim{inner: sys}
	s.pert, _ = sys.(model.Perturbable)
	s.enum, _ = sys.(model.Enumerable)
	s.ckp, _ = sys.(model.Checkpointer)
	s.dirty, _ = sys.(model.DirtyTracker)
	s.dig, _ = sys.(model.Digester)
	s.rep, _ = sys.(model.Replicable)
	return s
}

// total returns the calls made into this shim and every clone of it. Call
// it only after the check that used the shim has returned.
func (s *shim) total() profile {
	p := s.prof
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clones {
		cp := c.total()
		p.merge(&cp)
	}
	return p
}

// model.SharedSystem

func (s *shim) Colours() []model.Colour {
	t := time.Now()
	defer s.prof.add(callSched, t)
	return s.inner.Colours()
}

func (s *shim) Save() model.StateRef {
	t := time.Now()
	defer s.prof.add(callSave, t)
	return s.inner.Save()
}

func (s *shim) Restore(r model.StateRef) {
	t := time.Now()
	s.inner.Restore(r)
	s.prof.add(callRestore, t)
}

func (s *shim) Colour() model.Colour {
	t := time.Now()
	defer s.prof.add(callSched, t)
	return s.inner.Colour()
}

func (s *shim) NextOp() model.OpID {
	t := time.Now()
	defer s.prof.add(callSched, t)
	return s.inner.NextOp()
}

func (s *shim) Step() {
	t := time.Now()
	s.inner.Step()
	s.prof.add(callStep, t)
}

func (s *shim) ApplyInput(i model.Input) {
	t := time.Now()
	s.inner.ApplyInput(i)
	s.prof.add(callApplyInput, t)
}

func (s *shim) CurrentOutput() model.Output {
	t := time.Now()
	defer s.prof.add(callExtract, t)
	return s.inner.CurrentOutput()
}

func (s *shim) Abstract(c model.Colour) string {
	t := time.Now()
	defer s.prof.add(callAbstract, t)
	return s.inner.Abstract(c)
}

func (s *shim) ExtractInput(c model.Colour, i model.Input) string {
	t := time.Now()
	defer s.prof.add(callExtract, t)
	return s.inner.ExtractInput(c, i)
}

func (s *shim) ExtractOutput(c model.Colour, o model.Output) string {
	t := time.Now()
	defer s.prof.add(callExtract, t)
	return s.inner.ExtractOutput(c, o)
}

// model.Perturbable

func (s *shim) Randomize(r model.Rand) {
	if s.onRandomize != nil {
		s.onRandomize()
	}
	t := time.Now()
	s.pert.Randomize(r)
	s.prof.add(callRandomize, t)
}

func (s *shim) PerturbOutside(c model.Colour, r model.Rand) {
	t := time.Now()
	s.pert.PerturbOutside(c, r)
	s.prof.add(callPerturb, t)
}

func (s *shim) RandomInput(r model.Rand) model.Input {
	t := time.Now()
	defer s.prof.add(callRandomInput, t)
	return s.pert.RandomInput(r)
}

func (s *shim) RandomInputMatching(c model.Colour, i model.Input, r model.Rand) model.Input {
	t := time.Now()
	defer s.prof.add(callRandomInput, t)
	return s.pert.RandomInputMatching(c, i, r)
}

// model.Enumerable

func (s *shim) EnumerateStates(fn func(model.StateRef) bool) {
	t := time.Now()
	s.enum.EnumerateStates(fn)
	s.prof.add(callEnumerate, t)
}

func (s *shim) EnumerateInputs(fn func(model.Input) bool) {
	t := time.Now()
	s.enum.EnumerateInputs(fn)
	s.prof.add(callEnumerate, t)
}

// Optional interfaces, forwarded only when the inner system has them.

func (s *shim) Checkpoint() model.Checkpoint {
	if s.ckp == nil {
		return nil
	}
	t := time.Now()
	defer s.prof.add(callRollback, t)
	return s.ckp.Checkpoint()
}

func (s *shim) Rollback(cp model.Checkpoint) {
	t := time.Now()
	s.ckp.Rollback(cp)
	s.prof.add(callRollback, t)
}

func (s *shim) Release(cp model.Checkpoint) {
	t := time.Now()
	s.ckp.Release(cp)
	s.prof.add(callRollback, t)
}

func (s *shim) DirtyColours(cp model.Checkpoint) (uint64, bool) {
	if s.dirty == nil {
		return 0, false
	}
	t := time.Now()
	defer s.prof.add(callRollback, t)
	return s.dirty.DirtyColours(cp)
}

func (s *shim) AbstractDigest(c model.Colour) uint64 {
	t := time.Now()
	if s.dig != nil {
		d := s.dig.AbstractDigest(c)
		s.prof.add(callDigest, t)
		return d
	}
	d := model.DigestString(s.inner.Abstract(c))
	s.prof.add(callAbstract, t)
	return d
}

func (s *shim) ClassifyOp(op model.OpID) string {
	t := time.Now()
	defer s.prof.add(callSched, t)
	return model.OpClass(s.inner, op)
}

func (s *shim) Clone() model.SharedSystem {
	if s.rep == nil {
		return nil
	}
	t := time.Now()
	inner := s.rep.Clone()
	if inner == nil {
		return nil
	}
	c := newShim(inner)
	// Clone runs on worker goroutines: charge it to the clone's own profile.
	c.prof.add(callSave, t)
	s.mu.Lock()
	s.clones = append(s.clones, c)
	s.mu.Unlock()
	return c
}
