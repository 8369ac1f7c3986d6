package separability_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/separability"
)

// runSharded cuts sys's sweep into n shards (each rebuilt from build so
// shards never share state), runs them with the given worker count, and
// merges the shard results.
func runSharded(t *testing.T, build func() model.Enumerable,
	shards, workers, maxViolations int) *separability.Result {
	t.Helper()
	srs := make([]*separability.ShardResult, shards)
	for k := 0; k < shards; k++ {
		sr, err := separability.CheckExhaustiveShard(build(), separability.ExhaustiveOptions{
			MaxViolations: maxViolations, Workers: workers, Shard: k, Shards: shards,
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", k, shards, err)
		}
		srs[k] = sr
	}
	res, err := separability.MergeShards(srs)
	if err != nil {
		t.Fatalf("merge %d shards: %v", shards, err)
	}
	return res
}

// The sharding guarantee: cutting the sweep into any shard count, run at
// any worker count, merges to a result identical to the single-threaded
// unsharded run — same violations in the same order, same counts.
func TestShardWorkerInvarianceMatrix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant separability.ToyVariant
	}{
		{"secure", separability.ToySecure},
		{"leaky-direct-write", separability.ToyDirectWrite},
		{"leaky-input-snoop", separability.ToyInputSnoop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() model.Enumerable { return separability.NewToySystem(tc.variant) }
			base := prove(t, build(), 6, 1)
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 4} {
					got := runSharded(t, build, shards, workers, 6)
					requireIdentical(t, base, got,
						tc.name+"/"+shardLabel(shards, workers))
				}
			}
		})
	}
}

func shardLabel(shards, workers int) string {
	return "shards=" + string(rune('0'+shards)) + ",workers=" + string(rune('0'+workers))
}

// A sealed shard-result survives the file round trip bit-for-bit, and its
// content address detects tampering and truncation.
func TestShardResultFileRoundTrip(t *testing.T) {
	sr, err := separability.CheckExhaustiveShard(
		separability.NewToySystem(separability.ToyDirectWrite),
		separability.ExhaustiveOptions{
			MaxViolations: 4, Workers: 1, Shard: 1, Shards: 2, Target: "toy:direct-write",
		})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.json")
	if err := sr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := separability.ReadShardResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, got) {
		t.Error("shard result changed across the file round trip")
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := separability.DecodeShardResult(b[:len(b)/2]); err == nil {
		t.Error("truncated shard result decoded without error")
	}
	tampered := bytes.Replace(b, []byte(`"shard":1`), []byte(`"shard":0`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("tamper substitution did not apply")
	}
	if _, err := separability.DecodeShardResult(tampered); err == nil {
		t.Error("tampered shard result decoded without error")
	}
	if _, err := separability.DecodeShardResult([]byte("not json")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// MergeShards refuses incomplete sets, duplicates and mismatched sweeps.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(shard, shards, chunkSize int) *separability.ShardResult {
		sr, err := separability.CheckExhaustiveShard(
			separability.NewToySystem(separability.ToySecure),
			separability.ExhaustiveOptions{
				MaxViolations: 4, Workers: 1, Shard: shard, Shards: shards, ChunkSize: chunkSize,
			})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	s0, s1 := mk(0, 2, 0), mk(1, 2, 0)

	if _, err := separability.MergeShards([]*separability.ShardResult{s0, s1}); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	if _, err := separability.MergeShards(nil); err == nil {
		t.Error("empty set merged without error")
	}
	if _, err := separability.MergeShards([]*separability.ShardResult{s0}); err == nil {
		t.Error("incomplete set merged without error")
	}
	if _, err := separability.MergeShards([]*separability.ShardResult{s0, s0}); err == nil {
		t.Error("duplicate shard merged without error")
	}
	other := mk(1, 2, 32) // same space, different chunking
	if _, err := separability.MergeShards([]*separability.ShardResult{s0, other}); err == nil {
		t.Error("mismatched chunk size merged without error")
	}
}

// The checkpoint guarantee: kill the sweep after any number of folded
// chunks, at any checkpoint cadence, resume from the file — the final
// artifact is identical (same content address) to the uninterrupted run.
// Covers single-shard and mid-shard kills, worker-count changes across the
// kill, and a redundant rerun after completion.
func TestCheckpointResumeDifferential(t *testing.T) {
	build := func() model.Enumerable { return separability.NewToySystem(separability.ToyDirectWrite) }
	base := separability.ExhaustiveOptions{
		MaxViolations: 4, Workers: 1, ChunkSize: 16, Target: "toy:direct-write",
	}
	clean, err := separability.CheckExhaustiveShard(build(), base)
	if err != nil {
		t.Fatal(err)
	}

	for _, cadence := range []int{1, 3} {
		for _, abortAt := range []int{1, 5, 20, 63} {
			ck := filepath.Join(t.TempDir(), "ck.json")
			opt := base
			opt.Checkpoint = ck
			opt.CheckpointEvery = cadence
			opt.AbortAfterChunks = abortAt
			if _, err := separability.CheckExhaustiveShard(build(), opt); !errors.Is(err, separability.ErrAborted) {
				t.Fatalf("cadence %d abort %d: got %v, want ErrAborted", cadence, abortAt, err)
			}
			resumed, err := separability.ReadShardCheckpoint(ck)
			if err != nil || resumed == nil {
				t.Fatalf("cadence %d abort %d: no checkpoint after abort: %v", cadence, abortAt, err)
			}
			opt.AbortAfterChunks = 0
			opt.Workers = 2 // the replacement worker pool need not match
			sr, err := separability.CheckExhaustiveShard(build(), opt)
			if err != nil {
				t.Fatalf("cadence %d abort %d: resume: %v", cadence, abortAt, err)
			}
			if sr.ID != clean.ID || !reflect.DeepEqual(sr, clean) {
				t.Errorf("cadence %d abort %d: resumed artifact differs from uninterrupted (%s vs %s)",
					cadence, abortAt, sr.ID, clean.ID)
			}
			// A rerun over the completed checkpoint folds nothing and
			// reproduces the artifact again.
			again, err := separability.CheckExhaustiveShard(build(), opt)
			if err != nil {
				t.Fatalf("cadence %d abort %d: rerun after done: %v", cadence, abortAt, err)
			}
			if again.ID != clean.ID {
				t.Errorf("cadence %d abort %d: rerun after done diverged", cadence, abortAt)
			}
		}
	}

	// The same differential for one shard of a 2-way cut.
	shOpt := base
	shOpt.Shard, shOpt.Shards = 1, 2
	shClean, err := separability.CheckExhaustiveShard(build(), shOpt)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	opt := shOpt
	opt.Checkpoint = ck
	opt.CheckpointEvery = 1
	opt.AbortAfterChunks = 7
	if _, err := separability.CheckExhaustiveShard(build(), opt); !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("shard abort: got %v, want ErrAborted", err)
	}
	opt.AbortAfterChunks = 0
	sr, err := separability.CheckExhaustiveShard(build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ID != shClean.ID {
		t.Errorf("sharded resume diverged: %s vs %s", sr.ID, shClean.ID)
	}
}

// A checkpoint from a different sweep — other parameters, another shard,
// tampered or truncated bytes, or a shard-result file passed off as a
// checkpoint — must be rejected, never silently restarted from.
func TestCheckpointRejectsForeignOrDamaged(t *testing.T) {
	build := func() model.Enumerable { return separability.NewToySystem(separability.ToyDirectWrite) }
	base := separability.ExhaustiveOptions{
		MaxViolations: 4, Workers: 1, ChunkSize: 16, Target: "toy:direct-write",
		CheckpointEvery: 1, AbortAfterChunks: 5,
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	opt := base
	opt.Checkpoint = ck
	if _, err := separability.CheckExhaustiveShard(build(), opt); !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("seeding abort: %v", err)
	}

	run := func(mutate func(opt *separability.ExhaustiveOptions, path string) string) error {
		o := base
		o.AbortAfterChunks = 0
		o.Checkpoint = mutate(&o, ck)
		_, err := separability.CheckExhaustiveShard(build(), o)
		return err
	}

	if err := run(func(o *separability.ExhaustiveOptions, p string) string {
		o.ChunkSize = 8
		return p
	}); err == nil {
		t.Error("checkpoint with different chunk size adopted")
	}
	if err := run(func(o *separability.ExhaustiveOptions, p string) string {
		o.Target = "toy:other"
		return p
	}); err == nil {
		t.Error("checkpoint for different target adopted")
	}
	if err := run(func(o *separability.ExhaustiveOptions, p string) string {
		o.Shard, o.Shards = 1, 2
		return p
	}); err == nil {
		t.Error("checkpoint for different shard adopted")
	}

	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.json")
	os.WriteFile(trunc, b[:len(b)-12], 0o644)
	if err := run(func(o *separability.ExhaustiveOptions, _ string) string { return trunc }); err == nil {
		t.Error("truncated checkpoint adopted")
	}
	tampered := filepath.Join(dir, "tampered.json")
	os.WriteFile(tampered, bytes.Replace(b, []byte(`"frontier":`), []byte(`"frontier": 1`), 1), 0o644)
	if err := run(func(o *separability.ExhaustiveOptions, _ string) string { return tampered }); err == nil {
		t.Error("tampered checkpoint adopted")
	}

	// A shard result is not a checkpoint, even though both are sealed JSON.
	srOpt := base
	srOpt.AbortAfterChunks = 0
	sr, err := separability.CheckExhaustiveShard(build(), srOpt)
	if err != nil {
		t.Fatal(err)
	}
	asCk := filepath.Join(dir, "result-as-ck.json")
	if err := sr.WriteFile(asCk); err != nil {
		t.Fatal(err)
	}
	if err := run(func(o *separability.ExhaustiveOptions, _ string) string { return asCk }); err == nil {
		t.Error("shard-result file adopted as a checkpoint")
	}
}

// cloneCounter wraps an Enumerable, counting how many replicas the checker
// actually manufactures.
type cloneCounter struct {
	model.Enumerable
	n *atomic.Int32
}

func (c *cloneCounter) Clone() model.SharedSystem {
	clone := c.Enumerable.(model.Replicable).Clone()
	if clone == nil {
		return nil
	}
	c.n.Add(1)
	return &cloneCounter{clone.(model.Enumerable), c.n}
}

// A worker pool wider than the chunk count must be clamped before replicas
// are manufactured: a 2-chunk sweep asked for 8 workers makes at most 1
// clone, and the result is still identical to the single-threaded run.
func TestWorkersClampedToChunks(t *testing.T) {
	var n atomic.Int32
	sys := &cloneCounter{separability.NewToySystem(separability.ToyDirectWrite), &n}
	res, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		MaxViolations: 4, Workers: 8, ChunkSize: 512, // 1024 states -> 2 chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got > 1 {
		t.Errorf("made %d clones for a 2-chunk sweep with 8 requested workers, want <= 1", got)
	}
	base := prove(t, separability.NewToySystem(separability.ToyDirectWrite), 4, 1)
	got, err := res.Result()
	if err != nil {
		t.Fatal(err)
	}
	// ChunkSize differs from the default, so only the verdict-level facts
	// are comparable here; order invariance is covered by the matrix test.
	if got.Summary() != base.Summary() {
		t.Errorf("clamped run summary %q, want %q", got.Summary(), base.Summary())
	}
}

// Concurrent CheckExhaustiveShard calls (the in-process analogue of a
// fleet) must not interfere: each shard on its own instance, merged, equals
// the direct run.
func TestConcurrentShardsMerge(t *testing.T) {
	build := func() model.Enumerable { return separability.NewToySystem(separability.ToyInputCross) }
	base := prove(t, build(), 6, 1)
	const shards = 4
	srs := make([]*separability.ShardResult, shards)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sr, err := separability.CheckExhaustiveShard(build(), separability.ExhaustiveOptions{
				MaxViolations: 6, Workers: 2, Shard: k, Shards: shards,
			})
			if err != nil {
				t.Errorf("shard %d: %v", k, err)
				return
			}
			srs[k] = sr
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	got, err := separability.MergeShards(srs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, base, got, "concurrent shards")
}

// FuzzCheckpointResume drives arbitrary bytes through the checkpoint
// decoder and, when they validate, through an actual resume. Decoding is
// total (errors, never panics), valid checkpoints re-encode canonically,
// and a checkpoint the engine adopts must still produce the artifact of an
// uninterrupted run.
func FuzzCheckpointResume(f *testing.F) {
	build := func() model.Enumerable { return separability.NewToySystem(separability.ToyDirectWrite) }
	opt := separability.ExhaustiveOptions{
		MaxViolations: 4, Workers: 1, ChunkSize: 64, Target: "toy:direct-write",
	}
	clean, err := separability.CheckExhaustiveShard(build(), opt)
	if err != nil {
		f.Fatal(err)
	}

	seedDir := f.TempDir()
	ckPath := filepath.Join(seedDir, "ck.json")
	abortOpt := opt
	abortOpt.Checkpoint = ckPath
	abortOpt.CheckpointEvery = 1
	abortOpt.AbortAfterChunks = 3
	if _, err := separability.CheckExhaustiveShard(build(), abortOpt); !errors.Is(err, separability.ErrAborted) {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(ckPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"frontier"`), []byte(`"frontier_"`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := separability.DecodeShardCheckpoint(data)
		if err != nil {
			return // invalid bytes are rejected, which is the contract
		}
		// Canonical re-encode round trip.
		b, err := json.Marshal(ck)
		if err != nil {
			t.Fatalf("valid checkpoint failed to re-encode: %v", err)
		}
		again, err := separability.DecodeShardCheckpoint(b)
		if err != nil {
			t.Fatalf("canonical re-encode no longer decodes: %v", err)
		}
		if !reflect.DeepEqual(ck, again) {
			t.Fatal("checkpoint changed across re-encode round trip")
		}
		// Hand the validated checkpoint to the engine: it either rejects a
		// foreign sweep or resumes and lands on the uninterrupted artifact.
		p := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Checkpoint = p
		sr, err := separability.CheckExhaustiveShard(build(), o)
		if err != nil {
			return // parameter mismatch with this sweep: rejected, fine
		}
		if sr.ID != clean.ID {
			t.Fatalf("adopted checkpoint produced artifact %s, uninterrupted run %s", sr.ID, clean.ID)
		}
	})
}

// The partition must tile the chunk space exactly: contiguous, disjoint,
// complete — for any shard count, including more shards than chunks.
func TestShardChunkRangeTiles(t *testing.T) {
	for _, nChunks := range []int{0, 1, 5, 16, 1152} {
		for _, n := range []int{1, 2, 3, 4, 7, 20} {
			p := separability.ShardParams{Shards: n, ChunkSize: 1, States: nChunks}
			prev := 0
			for k := 0; k < n; k++ {
				lo, hi := p.ChunkRange(k)
				if lo != prev {
					t.Fatalf("nChunks=%d n=%d shard %d: lo=%d, want %d (gap or overlap)",
						nChunks, n, k, lo, prev)
				}
				if hi < lo {
					t.Fatalf("nChunks=%d n=%d shard %d: hi=%d < lo=%d", nChunks, n, k, hi, lo)
				}
				prev = hi
			}
			if prev != nChunks {
				t.Fatalf("nChunks=%d n=%d: shards cover %d chunks", nChunks, n, prev)
			}
		}
	}
}

func TestChunkRangeStates(t *testing.T) {
	// 10 states, chunk size 4 -> chunks of 4, 4, 2.
	p := separability.ShardParams{ChunkSize: 4, States: 10}
	tests := []struct {
		lo, hi, want int
	}{
		{0, 0, 0}, {0, 1, 4}, {0, 2, 8}, {0, 3, 10}, {1, 3, 6}, {2, 3, 2}, {3, 3, 0},
	}
	for _, tc := range tests {
		if got := p.StatesIn(tc.lo, tc.hi); got != tc.want {
			t.Errorf("StatesIn(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	// A shard whose range lies entirely past the states (padding chunks).
	if got := p.StatesIn(5, 7); got != 0 {
		t.Errorf("out-of-range chunk range counted %d states", got)
	}
}
