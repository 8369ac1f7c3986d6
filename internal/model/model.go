// Package model states Rushby's Appendix model of a shared system as Go
// interfaces, so that both toy systems and the real SM11/SUE-Go kernel can
// be checked by the same Proof-of-Separability machinery.
//
// The paper's model comprises a set S of states and a set OPS ⊆ S→S of
// operations. The system consumes inputs i ∈ I and produces outputs o ∈ O.
// At each time step the system emits OUTPUT(s), consumes an input giving the
// intermediate state s̄ = INPUT(s, i), and then executes NEXTOP(s̄), moving
// to NEXTOP(s̄)(s̄). A set C of colours identifies the users; COLOUR(s) is
// the colour on whose behalf the next operation executes, and EXTRACT(c, ·)
// projects the c-coloured private components out of inputs and outputs.
//
// Security is defined by the existence, for every colour c, of abstraction
// functions Φ^c and ABOP^c satisfying the six conditions of the Appendix;
// package separability checks those conditions against implementations of
// the interfaces below.
package model

// Colour identifies one user (one regime) of a shared system.
type Colour string

// Input is one external stimulus vector: what the environment presents to
// every device/port of the system at one time step. Implementations are
// immutable values.
type Input interface{}

// Output is one emitted output vector, likewise immutable.
type Output interface{}

// StateRef is an opaque deep copy of a system state, used to save and
// restore the system while exploring.
type StateRef interface{}

// OpID names an operation of OPS. Two states select the same operation
// exactly when their OpIDs are equal (this realises NEXTOP for checking
// condition 6).
type OpID string

// SharedSystem is the concrete machine of the model: a deterministic state
// machine with coloured users. All methods refer to the system's *current*
// state; Save/Restore move the current state around.
//
// One model time step is: out := CurrentOutput(); ApplyInput(i); Step().
type SharedSystem interface {
	// Colours returns the user set C.
	Colours() []Colour

	// Save deep-copies the current state.
	Save() StateRef
	// Restore overwrites the current state with a previous Save.
	Restore(StateRef)

	// Colour returns COLOUR(s) for the current state: the colour on whose
	// behalf the next operation will execute.
	Colour() Colour

	// NextOp identifies NEXTOP(s) for the current state.
	NextOp() OpID

	// Step executes NEXTOP(s) on the current state.
	Step()

	// ApplyInput applies INPUT(s, i) to the current state.
	ApplyInput(i Input)

	// CurrentOutput returns OUTPUT(s) of the current state.
	CurrentOutput() Output

	// Abstract computes a canonical encoding of Φ^c(s) for the current
	// state: everything colour c can observe of its own abstract machine.
	// Equality of encodings is equality of abstract states.
	Abstract(c Colour) string

	// ExtractInput computes a canonical encoding of EXTRACT(c, i).
	ExtractInput(c Colour, i Input) string

	// ExtractOutput computes a canonical encoding of EXTRACT(c, o).
	ExtractOutput(c Colour, o Output) string
}

// Enumerable is implemented by systems small enough to check exhaustively:
// the checker visits every reachable state (or every state the enumerator
// yields) and every input.
type Enumerable interface {
	SharedSystem

	// EnumerateStates calls fn with a StateRef for every state to check.
	// Returning false stops the enumeration.
	EnumerateStates(fn func(StateRef) bool)

	// EnumerateInputs calls fn with every input value to check.
	EnumerateInputs(fn func(Input) bool)
}

// Rand is the source of randomness handed to Perturbable systems; it is the
// subset of *math/rand.Rand the implementations need.
type Rand interface {
	Intn(n int) int
	Uint32() uint32
}

// Replicable is implemented by systems that can manufacture independent
// deep copies of themselves, enabling the checkers to shard work across
// worker goroutines, each owning a private replica. A clone must share no
// mutable state with its original, must implement every model interface
// the original implements, and must accept StateRefs produced by the
// original (and vice versa). Clone returns nil when the system cannot be
// replicated — for example when it is wired to shared environment state —
// in which case the checkers fall back to single-threaded operation.
type Replicable interface {
	Clone() SharedSystem
}

// Digester is optionally implemented by systems that can compute a 64-bit
// digest of Φ^c(s) without materializing the canonical string. The digest
// MUST be the FNV-1a hash of exactly the bytes Abstract(c) would produce
// (DigestString or DigestBytes), so that digest equality coincides with
// string equality up to hash collisions. The checkers compare digests on
// their hot paths and re-derive full strings only when a violation needs a
// human-readable counterexample.
type Digester interface {
	AbstractDigest(c Colour) uint64
}

// FNV-1a 64-bit parameters (FNV is the digest of record for Φ comparison:
// fast and allocation-free).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// DigestString returns the FNV-1a 64-bit digest of s; it is the reference
// implementation AbstractDigest must agree with.
func DigestString(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// DigestBytes returns the FNV-1a 64-bit digest of b: DigestString without
// the string, for encoders that render into a reusable buffer.
func DigestBytes(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// AbstractDigest computes the digest of Φ^c for sys's current state: via
// the system's own Digester implementation when present, else by hashing
// the canonical Abstract encoding.
func AbstractDigest(sys SharedSystem, c Colour) uint64 {
	if d, ok := sys.(Digester); ok {
		return d.AbstractDigest(c)
	}
	return DigestString(sys.Abstract(c))
}

// Checkpoint is an opaque handle to a delta checkpoint taken by a
// Checkpointer.
type Checkpoint interface{}

// Checkpointer is optionally implemented by systems that can roll back to a
// recent point in O(state actually touched) instead of the O(whole state)
// that Save/Restore costs. The checkers anchor every per-state condition
// sweep on a Checkpoint when one is available and fall back to Save/Restore
// otherwise; both paths must produce identical observable behaviour.
type Checkpointer interface {
	// Checkpoint begins tracking mutations from the current state and
	// returns a handle for rolling back to it. It returns nil when delta
	// tracking is unavailable right now (for example a checkpoint is
	// already active); the caller must then use Save/Restore.
	Checkpoint() Checkpoint
	// Rollback returns the system to the checkpoint state. Tracking
	// continues: the system may be mutated and rolled back repeatedly.
	Rollback(Checkpoint)
	// Release rolls back to the checkpoint state and ends tracking,
	// recycling the checkpoint's buffers. The handle is dead afterwards.
	Release(Checkpoint)
}

// DirtyTracker is an optional refinement of Checkpointer: it reports which
// colours' abstractions MAY have changed since the given checkpoint was
// taken (or since the most recent Rollback to it). The mask is indexed by
// the position of each colour in Colours(): a CLEAR bit ci is a proof that
// Φ^c for Colours()[ci] is byte-identical to its checkpoint-time value; a
// set bit promises nothing. ok=false means the tracker cannot answer for
// this checkpoint (the caller must treat every colour as dirty).
//
// The exhaustive checker uses this to skip whole digest passes: after
// stepping or applying an input from a checkpointed state, colours the
// mutation provably never touched reuse the checkpoint-time digest.
// Implementations must therefore be conservative in exactly one direction —
// over-marking wastes a recompute, under-marking corrupts verdicts.
type DirtyTracker interface {
	DirtyColours(cp Checkpoint) (mask uint64, ok bool)
}

// Portable is optionally implemented by systems whose states and inputs can
// leave the process: the witness subsystem persists a counterexample's
// pre-state and input sequence through these codecs and re-materializes them
// in a later run against a freshly built system. Encodings must be
// self-describing and versioned — DecodeState on bytes from an incompatible
// build must fail with an error, never yield a plausible wrong state — and
// the round trip must be exact: DecodeState(EncodeState(ref)) restores to a
// state indistinguishable from ref under Step, ApplyInput and Abstract.
// Encoding either direction must not disturb the system's current state.
type Portable interface {
	EncodeState(ref StateRef) ([]byte, error)
	DecodeState(data []byte) (StateRef, error)
	EncodeInput(i Input) ([]byte, error)
	DecodeInput(data []byte) (Input, error)
}

// OpClassifier is optionally implemented by systems that can map an OpID to
// a low-cardinality operation class for metrics (OpIDs themselves embed
// state detail like program counters, far too many distinct values to
// count). Classes should be stable, human-meaningful buckets — "user:MOV",
// "syscall", "deliver-irq".
type OpClassifier interface {
	ClassifyOp(op OpID) string
}

// OpClass buckets op for per-operation metrics: via the system's own
// OpClassifier when present, else by truncating the OpID at its first ':'
// (the conventional "kind:detail" shape of OpIDs).
func OpClass(sys SharedSystem, op OpID) string {
	if c, ok := sys.(OpClassifier); ok {
		return c.ClassifyOp(op)
	}
	s := string(op)
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i]
		}
	}
	return s
}

// Perturbable is implemented by systems too large to enumerate; the checker
// samples random reachable states and perturbs the parts of the state that
// a given colour should not be able to observe.
type Perturbable interface {
	SharedSystem

	// Randomize drives the system into a random plausible reachable state
	// (typically: reset, then run a random prefix with random stimuli).
	Randomize(r Rand)

	// PerturbOutside mutates state components that do not belong to colour
	// c — other regimes' memory, registers and device state — while
	// preserving Φ^c(s) and COLOUR(s). The checker verifies preservation
	// and fails the *system definition* (not separability) if violated.
	PerturbOutside(c Colour, r Rand)

	// RandomInput produces a random input stimulus.
	RandomInput(r Rand) Input

	// RandomInputMatching produces a random input i' with
	// EXTRACT(c, i') == EXTRACT(c, i): same c-coloured components as i,
	// everything else free.
	RandomInputMatching(c Colour, i Input, r Rand) Input
}
