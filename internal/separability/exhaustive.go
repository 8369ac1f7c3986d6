package separability

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/model"
	"repro/internal/obs"
)

// The exhaustive checker sweeps the enumerated state space in fixed-size
// chunks of consecutive states and checks every condition for every colour
// at each state. Chunks are the unit of work distribution (worker
// goroutines claim them from an atomic counter), of sharding (a shard is a
// contiguous chunk range, so `sepverify -shard k/n` processes run disjoint
// ranges of the same partition) and of checkpointing (completed-chunk
// frontier plus partial per-colour results).
//
// The pairwise conditions (1, 3, 5, 6) quantify over Φc-equal state PAIRS,
// which cross any contiguous partition. To keep sharding exact, a cheap
// sequential-order pass first digests Φc of every state for every colour
// and elects, per (colour, digest) bucket, a canonical LEAD state: the
// bucket member with the smallest enumeration index (and, for conditions 1
// and 6, the smallest member with COLOUR=c). Only the lead states are
// materialized as full stateInfo records; the chunk sweep then compares
// each state against its bucket's lead. Equality against the lead is
// equivalent to pairwise equality across the bucket (equality is
// transitive), every non-lead member performs exactly one comparison, and
// the comparison a state performs depends only on global enumeration order
// — so concatenating per-chunk results in chunk order reproduces the
// unsharded sweep exactly, at any shard x worker count.
//
// MaxViolations does not stop the sweep early: condition *counts* always
// cover the full space. The cap is per condition, so every condition that
// is violated anywhere keeps its first counterexamples — ViolatedConditions
// is exact, not an artifact of which violations happened to fill a global
// cap first. Per-condition prefix-truncation is associative and
// order-stable, so folding chunk results into shard accumulators, shard
// files into the combined Result, and per-colour results into the final
// verdict all commute with the cap — the surviving violations are
// identical however the space was partitioned.
//
// The cap is tested before a violation is built, because building one
// re-derives its Detail on the system (a Restore, usually a Step, and the
// renderings). Construction is skipped whenever truncation would drop the
// violation anyway, by two rules:
//
//   - Chunk cap: the chunk's result for the colour already holds
//     MaxViolations violations of the condition.
//   - Fold prefix: chunks fold into the shard accumulators strictly in
//     chunk order, and truncation keeps each condition's first
//     MaxViolations. So once the folded accumulator for colour c holds
//     MaxViolations violations of condition k, no later chunk can add a
//     k-violation for c. The folder publishes these saturated conditions
//     as one atomic bitmask per colour. A worker snapshots the masks when
//     it claims a chunk; every chunk it can still claim lies at or past the
//     folded frontier, so the snapshot is never too eager. A resumed run
//     seeds the masks from the checkpoint's accumulators.
type stateInfo struct {
	ref    model.StateRef
	colour model.Colour
	op     model.OpID
	phi    []uint64   // Φc(s) digest, per colour index
	phiOp  []uint64   // Φc(op(s)) digest, per colour index
	outEx  []uint64   // digest of EXTRACT(c, OUTPUT(s)), per colour index
	phiIn  [][]uint64 // [input][colour] Φc(INPUT(s,i)) digest
	inEx   [][]uint64 // [input][colour] digest of EXTRACT(c, i)
}

// CheckExhaustive verifies the six conditions universally over every state
// and input an Enumerable system yields. For a system whose enumerator
// covers its whole (reachable) state space this constitutes a proof of
// separability by explicit-state model checking.
//
// When the system implements model.Replicable, the sweep is sharded across
// GOMAXPROCS worker goroutines, each on a private replica; the result is
// identical to the single-threaded check. Use CheckExhaustiveWorkers to pin
// the worker count.
func CheckExhaustive(sys model.Enumerable, maxViolations int) *Result {
	return CheckExhaustiveWorkers(sys, maxViolations, runtime.GOMAXPROCS(0))
}

// CheckExhaustiveWorkers is CheckExhaustive with an explicit worker count
// (1 = single-threaded; 0 = one worker per CPU core). Results are identical
// for every worker count.
func CheckExhaustiveWorkers(sys model.Enumerable, maxViolations, workers int) *Result {
	return CheckExhaustiveOpt(sys, ExhaustiveOptions{
		MaxViolations: maxViolations, Workers: workers})
}

// defaultChunkSize is the per-claim state count when ExhaustiveOptions
// leaves ChunkSize zero. It is also the checkpoint granularity.
const defaultChunkSize = 64

// ExhaustiveOptions tunes CheckExhaustiveOpt / CheckExhaustiveShard.
type ExhaustiveOptions struct {
	// MaxViolations caps how many counterexamples are collected PER
	// CONDITION (0 = 64), so every violated condition surfaces even when
	// another condition fails at millions of states. The sweep itself
	// always covers the full space — the cap suppresses violation
	// construction, never checking — so results stay identical at any
	// shard x worker x chunk arrangement.
	MaxViolations int
	// Workers shards the sweeps across this many goroutines
	// (1 = single-threaded; 0 = one per CPU core). The count is clamped to
	// the number of chunks, so small systems never pay for replicas that
	// would have no work. Results are identical for every worker count.
	Workers int
	// Metrics, when non-nil, receives live progress counters so a
	// -progress consumer can report percent-of-space completed:
	//
	//	sep_exh_space_total   — check units this shard will visit:
	//	                        shard states × (1 + inputs), published up
	//	                        front (resumed work counts as visited)
	//	sep_exh_states_total  — units completed so far
	//
	// Attaching a registry never changes the Result.
	Metrics *obs.Registry

	// Shard/Shards select one shard of a deterministic partition of the
	// chunked state space: shard k of n covers chunk range
	// [k*nChunks/n, (k+1)*nChunks/n). Zero values mean the whole space
	// (shard 0 of 1). Merging the n shard results in shard order
	// (MergeShards) is byte-identical to the unsharded run.
	Shard, Shards int
	// ChunkSize is the number of consecutive states per work chunk
	// (0 = 64). Every shard of one partition must use the same value; it
	// is recorded in shard artifacts and validated on merge and resume.
	ChunkSize int
	// Checkpoint, when non-empty, names a file that persists the
	// completed-chunk frontier plus partial per-colour results, rewritten
	// atomically every CheckpointEvery folded chunks. A rerun pointed at
	// the same file validates it (content-addressed ID plus parameter
	// match; tampered or mismatched files are rejected with an error) and
	// resumes after the frontier, producing the identical ShardResult.
	Checkpoint string
	// CheckpointEvery is the checkpoint cadence in folded chunks (0 = 8).
	CheckpointEvery int
	// Target names the system being swept; it is stamped into shard
	// artifacts so results from different targets cannot be merged or
	// resumed into each other.
	Target string

	// AbortAfterChunks, when positive, stops the run with ErrAborted after
	// this many chunks have been folded this run, writing a final
	// checkpoint first (testing lever: simulates a kill at a chosen point).
	AbortAfterChunks int
	// ChunkDelay sleeps this long before processing each claimed chunk
	// (testing/fleet-smoke lever: slows the sweep so externally timed
	// kills land mid-run).
	ChunkDelay time.Duration
}

// ErrAborted reports that CheckExhaustiveShard stopped early because
// ExhaustiveOptions.AbortAfterChunks was reached; if a checkpoint file is
// configured, the partial progress has been persisted to it.
var ErrAborted = errors.New("separability: exhaustive sweep aborted after configured chunk budget")

// CheckExhaustiveOpt is the options form of CheckExhaustive, for complete
// in-process runs. It panics on errors, which for full sweeps can only be
// option misuse (an invalid shard spec, an unusable checkpoint file) —
// process-level drivers that need error handling use CheckExhaustiveShard.
func CheckExhaustiveOpt(sys model.Enumerable, opt ExhaustiveOptions) *Result {
	sr, err := CheckExhaustiveShard(sys, opt)
	if err != nil {
		panic("separability: CheckExhaustiveOpt: " + err.Error())
	}
	res, err := sr.Result()
	if err != nil {
		panic("separability: CheckExhaustiveOpt: " + err.Error())
	}
	return res
}

// CheckExhaustiveShard runs one shard of the exhaustive sweep (the whole
// space when Shards <= 1) and returns its sealed, content-addressed
// ShardResult. Checkpoint resume, sharding and worker parallelism all
// compose: the merged result is byte-identical however the sweep was cut.
func CheckExhaustiveShard(sys model.Enumerable, opt ExhaustiveOptions) (*ShardResult, error) {
	sr, _, err := checkExhaustiveShard(sys, opt)
	return sr, err
}

// sweepStats is what a shard run reports beyond its artifact: the number
// of violations it built that the fold then truncated. Tests read it to
// check that the cap stops construction early; it is never persisted.
type sweepStats struct {
	truncated int
}

// checkExhaustiveShard is CheckExhaustiveShard plus the run's sweepStats,
// which are valid on ErrAborted too.
func checkExhaustiveShard(sys model.Enumerable, opt ExhaustiveOptions) (*ShardResult, sweepStats, error) {
	var stats sweepStats
	maxViolations := opt.MaxViolations
	if maxViolations <= 0 {
		maxViolations = 64
	}
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkSize := opt.ChunkSize
	if chunkSize <= 0 {
		chunkSize = defaultChunkSize
	}
	shard, shards := opt.Shard, opt.Shards
	if shards == 0 {
		shards = 1
	}
	if shard < 0 || shard >= shards {
		return nil, stats, fmt.Errorf("separability: invalid shard %d/%d", shard, shards)
	}
	ckEvery := opt.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 8
	}

	var states []model.StateRef
	sys.EnumerateStates(func(s model.StateRef) bool {
		states = append(states, s)
		return true
	})
	var inputs []model.Input
	sys.EnumerateInputs(func(i model.Input) bool {
		inputs = append(inputs, i)
		return true
	})
	colours := sys.Colours()
	nc := len(colours)

	nChunks := (len(states) + chunkSize - 1) / chunkSize
	startChunk := shard * nChunks / shards
	endChunk := (shard + 1) * nChunks / shards
	params := ShardParams{
		Target: opt.Target, Shard: shard, Shards: shards,
		ChunkSize: chunkSize, MaxViolations: maxViolations,
		States: len(states), Inputs: len(inputs), Colours: colourNames(colours),
	}

	// Resume: load, validate and adopt any prior checkpoint before paying
	// for the sweeps. A missing file is a cold start; an invalid or
	// mismatched one is an error, never a silent restart.
	frontier := startChunk
	acc := make([]*Result, nc)
	for ci := range acc {
		acc[ci] = &Result{Checks: map[Condition]int{}}
	}
	if opt.Checkpoint != "" {
		ck, err := ReadShardCheckpoint(opt.Checkpoint)
		if err != nil {
			return nil, stats, err
		}
		if ck != nil {
			if err := ck.ShardParams.sameSweep(params); err != nil {
				return nil, stats, fmt.Errorf("separability: checkpoint %s: %w", opt.Checkpoint, err)
			}
			if ck.Shard != shard {
				return nil, stats, fmt.Errorf("separability: checkpoint %s: shard %d, want %d",
					opt.Checkpoint, ck.Shard, shard)
			}
			frontier = ck.Frontier
			for ci := range acc {
				r, err := ck.PerColour[ci].result()
				if err != nil {
					return nil, stats, fmt.Errorf("separability: checkpoint %s: colour %d: %w",
						opt.Checkpoint, ci, err)
				}
				acc[ci] = r
			}
		}
	}

	// Progress counters: the shard's own unit space is published before the
	// sweep starts, and resumed work is credited immediately, so consumers
	// can compute percent-complete from the first scrape.
	unitsPerState := uint64(1 + len(inputs))
	var done *obs.Counter
	if opt.Metrics != nil {
		opt.Metrics.Counter("sep_exh_space_total").
			Add(uint64(statesInChunks(startChunk, endChunk, chunkSize, len(states))) * unitsPerState)
		done = opt.Metrics.Counter("sep_exh_states_total")
		if n := statesInChunks(startChunk, frontier, chunkSize, len(states)); n > 0 {
			done.Add(uint64(n) * unitsPerState)
		}
	}

	// Chunks are the unit of parallelism: clamp the worker count so small
	// systems never spin up replicas that would claim nothing.
	if workers > nChunks {
		workers = nChunks
	}
	if workers < 1 {
		workers = 1
	}
	replicas := replicate(sys, workers)

	// Pass 0: anchor Φ digests of EVERY state for every colour, plus the
	// lead-table election. This pass is shard-independent — every shard
	// derives the same global pairing structure, which is what makes a
	// contiguous chunk range an exact slice of the unsharded sweep.
	phi0 := make([]uint64, len(states)*nc)
	cols := make([]model.Colour, len(states))
	runChunks(replicas, nChunks, func(_ int, rep model.Enumerable, cj int) {
		lo, hi := chunkBounds(cj, chunkSize, len(states))
		for si := lo; si < hi; si++ {
			rep.Restore(states[si])
			cols[si] = rep.Colour()
			for ci, c := range colours {
				phi0[si*nc+ci] = model.AbstractDigest(rep, c)
			}
		}
	})
	leads := make([]map[uint64]*leadEnt, nc)
	needed := map[int]bool{}
	for ci := range colours {
		m := make(map[uint64]*leadEnt)
		for si := range states {
			d := phi0[si*nc+ci]
			e := m[d]
			if e == nil {
				e = &leadEnt{leadSi: si, activeSi: -1}
				m[d] = e
			}
			e.n++
			if cols[si] == colours[ci] {
				if e.activeSi < 0 {
					e.activeSi = si
				}
				e.nActive++
			}
		}
		for _, e := range m {
			if e.n >= 2 {
				needed[e.leadSi] = true
			}
			if e.nActive >= 2 {
				needed[e.activeSi] = true
			}
		}
		leads[ci] = m
	}
	cols = nil

	// Materialize full stateInfo for just the lead states (only buckets
	// with a second member need one) — the O(leads) resident set that
	// replaces the old O(space) whole-table precompute.
	neededSis := make([]int, 0, len(needed))
	for si := range needed {
		neededSis = append(neededSis, si)
	}
	sort.Ints(neededSis)
	leadBySi := make(map[int]*stateInfo, len(neededSis))
	leadInfos := make([]*stateInfo, len(neededSis))
	runChunks(replicas, (len(neededSis)+chunkSize-1)/chunkSize, func(_ int, rep model.Enumerable, cj int) {
		lo, hi := chunkBounds(cj, chunkSize, len(neededSis))
		for k := lo; k < hi; k++ {
			si := neededSis[k]
			info := &stateInfo{}
			precomputeInto(rep, states[si], colours, inputs, phi0[si*nc:(si+1)*nc], info)
			leadInfos[k] = info
		}
	})
	for k, si := range neededSis {
		leadBySi[si] = leadInfos[k]
	}

	e := &exhEngine{
		colours: colours, inputs: inputs,
		leads: leads, leadBySi: leadBySi,
	}

	// The chunk sweep: workers claim chunks from the shard's frontier, each
	// precomputing states into one pooled stateInfo and checking them
	// in place; the folder merges finished chunks strictly in chunk order,
	// publishes which conditions it has saturated, and persists the
	// checkpoint at the configured cadence.
	folder := &chunkFolder{
		pending: map[int][]*Result{}, frontier: frontier, endChunk: endChunk,
		acc: acc, max: maxViolations, abortAfter: opt.AbortAfterChunks,
		ckPath: opt.Checkpoint, ckEvery: ckEvery,
		mkCk: func(frontier int, acc []*Result, doneFlag bool) *ShardCheckpoint {
			return newShardCheckpoint(params, startChunk, endChunk, frontier, doneFlag, acc)
		},
		sat: make([]atomic.Uint32, nc),
	}
	for ci := range acc {
		folder.sat[ci].Store(saturatedConditions(acc[ci].Violations, maxViolations))
	}
	var claim atomic.Int64
	claim.Store(int64(frontier))
	forEachReplica(replicas, func(_ int, rep model.Enumerable) {
		w := newSweepWorker(rep, nc, maxViolations)
		for {
			if folder.stopped() {
				return
			}
			folder.saturation(w.full)
			cj := int(claim.Add(1)) - 1
			if cj >= endChunk {
				return
			}
			if opt.ChunkDelay > 0 {
				time.Sleep(opt.ChunkDelay)
			}
			perColour := make([]*Result, nc)
			for ci := range perColour {
				perColour[ci] = &Result{Checks: map[Condition]int{}}
			}
			lo, hi := chunkBounds(cj, chunkSize, len(states))
			for si := lo; si < hi; si++ {
				precomputeInto(rep, states[si], colours, inputs, phi0[si*nc:(si+1)*nc], &w.info)
				e.checkState(w, si, perColour)
				if done != nil {
					done.Add(unitsPerState)
				}
			}
			w.flush(perColour)
			folder.deliver(cj, perColour)
		}
	})
	stats.truncated = folder.truncated
	if folder.err != nil {
		return nil, stats, folder.err
	}
	if folder.stop {
		return nil, stats, ErrAborted
	}

	sr := &ShardResult{
		shardHeader: newShardHeader(KindShardResult, params, startChunk, endChunk),
		PerColour:   resultRecords(acc),
	}
	if err := artifact.Seal(sr, &sr.ID); err != nil {
		return nil, stats, err
	}
	if opt.Checkpoint != "" {
		ck := newShardCheckpoint(params, startChunk, endChunk, endChunk, true, acc)
		if err := ck.write(opt.Checkpoint, ck); err != nil {
			return nil, stats, err
		}
	}
	return sr, stats, nil
}

// leadEnt is one (colour, Φ-digest) bucket of the lead table: its size, its
// lead (first member in enumeration order) and the first member whose
// COLOUR is the bucket's colour (the reference for conditions 1 and 6).
type leadEnt struct {
	leadSi, activeSi int
	n, nActive       int
}

// exhEngine bundles the read-only sweep context the per-state check needs.
type exhEngine struct {
	colours  []model.Colour
	inputs   []model.Input
	leads    []map[uint64]*leadEnt
	leadBySi map[int]*stateInfo
}

// sweepWorker is one replica's scratch in the chunk sweep. For the chunk
// being swept it holds, per colour, the condition counts, the op-class
// counts and the violations built per condition, plus the fold's
// saturation masks as of the chunk's claim. flush writes the counts into
// the chunk's Results once.
type sweepWorker struct {
	sys     model.Enumerable
	max     int // MaxViolations
	info    stateInfo
	checks  [][ConditionSched + 1]int
	built   [][ConditionSched + 1]int
	ops     [][]int // [colour][index into classes]
	full    []uint32
	classOf map[model.OpID]int
	classes []string
	groups  []int // condition 4: the first input of each distinct extract
}

func newSweepWorker(sys model.Enumerable, nc, max int) *sweepWorker {
	return &sweepWorker{
		sys:     sys,
		max:     max,
		checks:  make([][ConditionSched + 1]int, nc),
		built:   make([][ConditionSched + 1]int, nc),
		ops:     make([][]int, nc),
		full:    make([]uint32, nc),
		classOf: map[model.OpID]int{},
	}
}

// class returns op's index into w.classes, classifying it on first sight.
func (w *sweepWorker) class(op model.OpID) int {
	k, ok := w.classOf[op]
	if !ok {
		k = len(w.classes)
		w.classes = append(w.classes, model.OpClass(w.sys, op))
		w.classOf[op] = k
		for ci := range w.ops {
			w.ops[ci] = append(w.ops[ci], 0)
		}
	}
	return k
}

// room reports whether a violation of cond for colour ci can survive the
// fold, counting it as built if so. Call it only once the condition has
// failed, and build the violation only when it returns true.
func (w *sweepWorker) room(ci int, cond Condition) bool {
	if w.full[ci]&(1<<cond) != 0 || w.built[ci][cond] >= w.max {
		return false
	}
	w.built[ci][cond]++
	return true
}

// flush writes the chunk's non-zero counts into its per-colour Results and
// resets the worker for the next chunk.
func (w *sweepWorker) flush(out []*Result) {
	for ci, res := range out {
		for cond, n := range w.checks[ci] {
			if n > 0 {
				res.countN(Condition(cond), n)
			}
		}
		for k, n := range w.ops[ci] {
			res.countOp(w.classes[k], n)
		}
		w.checks[ci] = [ConditionSched + 1]int{}
		w.built[ci] = [ConditionSched + 1]int{}
		clear(w.ops[ci])
	}
}

// checkState runs every condition for every colour at state si, whose
// stateInfo is w.info, appending violations to the chunk's per-colour
// results and counting into w. The condition order per (state, colour) is
// fixed — 2, 5, 3 per input, 6, 1, 4 — so violation order is a pure
// function of enumeration order, independent of chunking. w.sys is used
// only to re-derive Details for the violations that are built.
func (e *exhEngine) checkState(w *sweepWorker, si int, out []*Result) {
	sys, info := w.sys, &w.info
	cls := -1
	for ci, c := range e.colours {
		res := out[ci]
		checks := &w.checks[ci]
		ent := e.leads[ci][info.phi[ci]]
		n := 0 // condition instances checked at this (state, colour)

		// Condition 2: an operation on another colour's behalf leaves Φc
		// unchanged (single-state check).
		if info.colour != c {
			checks[Condition2]++
			n++
			if info.phiOp[ci] != info.phi[ci] && w.room(ci, Condition2) {
				res.add(Violation{Condition: Condition2, Colour: c, Op: info.op,
					Step: si, Want: info.phi[ci], Got: info.phiOp[ci],
					Detail: diffDetail(phiAt(sys, info.ref, c), phiOpAt(sys, info.ref, c))})
			}
		}

		// Pairwise conditions against the bucket lead; the lead itself has
		// nothing to compare against.
		if ent.n >= 2 && si != ent.leadSi {
			lead := e.leadBySi[ent.leadSi]
			n += 1 + len(e.inputs)

			// Condition 5: outputs agree across the bucket.
			checks[Condition5]++
			if info.outEx[ci] != lead.outEx[ci] && w.room(ci, Condition5) {
				res.add(Violation{Condition: Condition5, Colour: c, Op: info.op,
					Step: si, Want: lead.outEx[ci], Got: info.outEx[ci],
					Detail: fmt.Sprintf("EXTRACT(c,OUTPUT) %q vs %q",
						outExAt(sys, lead.ref, c), outExAt(sys, info.ref, c))})
			}

			// Condition 3: inputs act congruently across the bucket.
			checks[Condition3] += len(e.inputs)
			for ii := range e.inputs {
				if info.phiIn[ii][ci] != lead.phiIn[ii][ci] && w.room(ci, Condition3) {
					res.add(Violation{Condition: Condition3, Colour: c, Op: info.op,
						Step: si, Want: lead.phiIn[ii][ci], Got: info.phiIn[ii][ci],
						Detail: fmt.Sprintf("input %d: %s", ii,
							diffDetail(phiInAt(sys, lead.ref, e.inputs[ii], c),
								phiInAt(sys, info.ref, e.inputs[ii], c)))})
				}
			}
		}

		// Conditions 6 and 1 against the bucket's first COLOUR=c member.
		if info.colour == c && ent.nActive >= 2 && si != ent.activeSi {
			aLead := e.leadBySi[ent.activeSi]
			n += 2
			checks[Condition6]++
			if info.op != aLead.op && w.room(ci, Condition6) {
				res.add(Violation{Condition: Condition6, Colour: c, Op: info.op,
					Step: si,
					Want: model.DigestString(string(aLead.op)), Got: model.DigestString(string(info.op)),
					Detail: fmt.Sprintf("NEXTOP %q vs %q", aLead.op, info.op)})
			}
			checks[Condition1]++
			if info.phiOp[ci] != aLead.phiOp[ci] && w.room(ci, Condition1) {
				res.add(Violation{Condition: Condition1, Colour: c, Op: info.op,
					Step: si, Want: aLead.phiOp[ci], Got: info.phiOp[ci],
					Detail: diffDetail(phiOpAt(sys, aLead.ref, c), phiOpAt(sys, info.ref, c))})
			}
		}

		// Condition 4: this state's inputs grouped by EXTRACT(c, i), each
		// compared with the first input of its group.
		w.groups = w.groups[:0]
		for ii := range e.inputs {
			key := info.inEx[ii][ci]
			first := -1
			for _, g := range w.groups {
				if info.inEx[g][ci] == key {
					first = g
					break
				}
			}
			if first < 0 {
				w.groups = append(w.groups, ii)
				continue
			}
			checks[Condition4]++
			n++
			if info.phiIn[ii][ci] != info.phiIn[first][ci] && w.room(ci, Condition4) {
				res.add(Violation{Condition: Condition4, Colour: c, Op: info.op,
					Step: si, Want: info.phiIn[first][ci], Got: info.phiIn[ii][ci],
					Detail: fmt.Sprintf("inputs %d and %d extract-equal but act differently",
						first, ii)})
			}
		}

		if n > 0 {
			if cls < 0 {
				cls = w.class(info.op)
			}
			w.ops[ci][cls] += n
		}
	}
}

// chunkFolder merges finished chunks into the shard's per-colour
// accumulators strictly in chunk order (out-of-order deliveries wait in
// pending), truncating each colour to the violation cap, and persists the
// checkpoint at the configured cadence under the same lock. sat[ci] holds
// saturatedConditions of colour ci's accumulator; it is the only field
// workers read without the lock.
type chunkFolder struct {
	mu         sync.Mutex
	pending    map[int][]*Result
	frontier   int
	endChunk   int
	acc        []*Result
	max        int
	foldedRun  int
	abortAfter int
	stop       bool
	ckPath     string
	ckEvery    int
	sinceCk    int
	mkCk       func(frontier int, acc []*Result, done bool) *ShardCheckpoint
	err        error
	sat        []atomic.Uint32
	truncated  int
}

// saturation copies the per-colour saturation masks into dst.
func (f *chunkFolder) saturation(dst []uint32) {
	for ci := range dst {
		dst[ci] = f.sat[ci].Load()
	}
}

func (f *chunkFolder) stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stop
}

func (f *chunkFolder) deliver(cj int, perColour []*Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stop {
		return
	}
	f.pending[cj] = perColour
	for {
		next, ok := f.pending[f.frontier]
		if !ok {
			break
		}
		delete(f.pending, f.frontier)
		for ci, cr := range next {
			acc := f.acc[ci]
			acc.Merge(cr)
			if len(cr.Violations) == 0 {
				continue // acc is still truncated and its saturation unchanged
			}
			n := len(acc.Violations)
			acc.Violations = truncatePerCondition(acc.Violations, f.max)
			f.truncated += n - len(acc.Violations)
			f.sat[ci].Store(saturatedConditions(acc.Violations, f.max))
		}
		f.frontier++
		f.foldedRun++
		f.sinceCk++
	}
	aborting := f.abortAfter > 0 && f.foldedRun >= f.abortAfter && f.frontier < f.endChunk
	if f.ckPath != "" && f.sinceCk > 0 && (f.sinceCk >= f.ckEvery || aborting) {
		ck := f.mkCk(f.frontier, f.acc, false)
		if err := ck.write(f.ckPath, ck); err != nil {
			if f.err == nil {
				f.err = err
			}
			f.stop = true
			return
		}
		f.sinceCk = 0
	}
	if aborting {
		f.stop = true
	}
}

// forEachReplica runs fn once per replica, w being the replica's pool
// slot: on one goroutine each, or inline when there is only one, and
// returns when every call has.
func forEachReplica[S any](replicas []S, fn func(w int, rep S)) {
	if len(replicas) == 1 {
		fn(0, replicas[0])
		return
	}
	var wg sync.WaitGroup
	for w, rep := range replicas {
		wg.Add(1)
		go func(w int, rep S) {
			defer wg.Done()
			fn(w, rep)
		}(w, rep)
	}
	wg.Wait()
}

// runChunks claims indices [0, n) across the replicas, calling fn for each
// on whichever replica claimed it.
func runChunks[S any](replicas []S, n int, fn func(w int, rep S, i int)) {
	var next atomic.Int64
	forEachReplica(replicas, func(w int, rep S) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, rep, i)
		}
	})
}

// chunkBounds returns chunk cj's state range clipped to n states.
func chunkBounds(cj, chunkSize, n int) (int, int) {
	lo := cj * chunkSize
	hi := lo + chunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// statesInChunks counts the states covered by chunk range [lo, hi).
func statesInChunks(lo, hi, chunkSize, states int) int {
	a := min(lo*chunkSize, states)
	b := min(hi*chunkSize, states)
	return b - a
}

// replicate returns sys followed by up to n-1 clones of it, one system per
// worker. A system that is not Replicable (or whose Clone fails) yields
// just the original, collapsing the check to single-threaded.
func replicate[S model.SharedSystem](sys S, n int) []S {
	out := []S{sys}
	rep, ok := any(sys).(model.Replicable)
	if !ok {
		return out
	}
	for len(out) < n {
		clone, ok := rep.Clone().(S)
		if !ok {
			return out[:1]
		}
		out = append(out, clone)
	}
	return out
}

// precomputeInto gathers one state's stateInfo on the given system instance
// into info, reusing info's backing slices when they are large enough (the
// chunk sweep recycles one buffer per worker across every state it
// processes). Anchor Φ digests come from phiAnchor, the caller's pass-0
// row, so the sweep pays only the post-op and post-input digests. All
// extracts are stored as FNV-64 digests; canonical strings are re-derived
// lazily on the cold violation path. The per-input resets anchor on a
// stateScope so Checkpointer systems pay O(words touched) per reset
// instead of a full Restore.
func precomputeInto(sys model.Enumerable, ref model.StateRef,
	colours []model.Colour, inputs []model.Input, phiAnchor []uint64, info *stateInfo) {

	nc, ni := len(colours), len(inputs)
	info.ref = ref
	info.phi = append(info.phi[:0], phiAnchor...)
	info.phiOp = growU64(info.phiOp, nc)
	info.outEx = growU64(info.outEx, nc)
	info.phiIn = growU64Rows(info.phiIn, ni, nc)
	info.inEx = growU64Rows(info.inEx, ni, nc)

	sys.Restore(ref)
	sc := openScopeAt(sys, ref)
	defer sc.close()
	info.colour = sys.Colour()
	info.op = sys.NextOp()
	out := sys.CurrentOutput()
	for ci, c := range colours {
		info.outEx[ci] = model.DigestString(sys.ExtractOutput(c, out))
	}
	// The footprint shortcut: when the system can prove which colours a
	// mutation touched (model.DirtyTracker over the checkpoint's write
	// journal), untouched colours reuse the anchor digest — Φ^c is a pure
	// function of state the mutation never wrote. Masks wider than 64
	// colours cannot be represented; such systems take the full sweeps.
	wide := nc > 64
	sys.Step()
	opMask, opOK := sc.dirty()
	for ci, c := range colours {
		if opOK && !wide && opMask&(1<<uint(ci)) == 0 {
			info.phiOp[ci] = info.phi[ci]
		} else {
			info.phiOp[ci] = model.AbstractDigest(sys, c)
		}
	}
	for ii, in := range inputs {
		sc.reset()
		for ci, c := range colours {
			info.inEx[ii][ci] = model.DigestString(sys.ExtractInput(c, in))
		}
		sys.ApplyInput(in)
		inMask, inOK := sc.dirty()
		for ci, c := range colours {
			if inOK && !wide && inMask&(1<<uint(ci)) == 0 {
				info.phiIn[ii][ci] = info.phi[ci]
			} else {
				info.phiIn[ii][ci] = model.AbstractDigest(sys, c)
			}
		}
	}
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growU64Rows(s [][]uint64, n, m int) [][]uint64 {
	if cap(s) < n {
		s = make([][]uint64, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = growU64(s[i], m)
	}
	return s
}

// The lazy string re-derivations for violation Details: each restores the
// relevant state on sys and renders the canonical encoding the stored
// digest summarizes. Violations are cold, so the extra Restore/Abstract
// round trips cost nothing on passing checks.

func phiAt(sys model.Enumerable, ref model.StateRef, c model.Colour) string {
	sys.Restore(ref)
	return sys.Abstract(c)
}

func phiOpAt(sys model.Enumerable, ref model.StateRef, c model.Colour) string {
	sys.Restore(ref)
	sys.Step()
	return sys.Abstract(c)
}

func phiInAt(sys model.Enumerable, ref model.StateRef, in model.Input, c model.Colour) string {
	sys.Restore(ref)
	sys.ApplyInput(in)
	return sys.Abstract(c)
}

func outExAt(sys model.Enumerable, ref model.StateRef, c model.Colour) string {
	sys.Restore(ref)
	return sys.ExtractOutput(c, sys.CurrentOutput())
}

// foldColours merges per-colour results in colour order and truncates to
// the per-condition violation cap — the deterministic final fold shared by
// the in-process engine and the shard-file merge.
func foldColours(perColour []*Result, max int) *Result {
	res := &Result{Checks: map[Condition]int{}}
	for _, cr := range perColour {
		res.Merge(cr)
	}
	res.Violations = truncatePerCondition(res.Violations, max)
	return res
}

// saturatedConditions returns, as a bitmask over Condition values, the
// conditions of which vs holds at least max violations. A shard
// accumulator's violations only grow by appending later chunks, and
// truncatePerCondition keeps prefixes, so no later violation of a
// saturated condition survives.
func saturatedConditions(vs []Violation, max int) uint32 {
	var counts [ConditionSched + 1]int
	var mask uint32
	for _, v := range vs {
		if counts[v.Condition]++; counts[v.Condition] >= max {
			mask |= 1 << v.Condition
		}
	}
	return mask
}

// truncatePerCondition keeps each condition's first max violations,
// preserving order (stable in-place filter). Prefix-truncation per
// condition is associative: applying it per chunk, per shard and on the
// final fold yields the same survivors as one pass over the whole list.
func truncatePerCondition(vs []Violation, max int) []Violation {
	var counts [ConditionSched + 1]int
	overflow := false
	for i := range vs {
		if counts[vs[i].Condition] >= max {
			overflow = true
			break
		}
		counts[vs[i].Condition]++
	}
	if !overflow {
		return vs
	}
	out := vs[:0]
	clear(counts[:])
	for _, v := range vs {
		if counts[v.Condition] < max {
			counts[v.Condition]++
			out = append(out, v)
		}
	}
	return out
}

func colourNames(cs []model.Colour) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c)
	}
	return out
}
