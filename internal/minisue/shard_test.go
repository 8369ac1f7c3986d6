package minisue_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
)

// The fleet-scale guarantee on the kernel-shaped model: cutting the
// exhaustive MiniSUE sweep into shards, run at any worker count, merges to
// a result identical to the single-threaded unsharded run — on the honest
// kernel and on planted-leak variants, so neither the verdict nor the
// counterexamples depend on how the fleet was cut.
func TestMiniSUEShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix skipped in -short mode")
	}
	for _, tc := range []struct {
		name    string
		variant minisue.Variant
	}{
		{"honest", minisue.Secure},
		{"register-leak", minisue.RegisterLeak},
		{"interrupt-misroute", minisue.InterruptMisroute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() model.Enumerable { return minisue.New(tc.variant) }
			base := prove(t, build(), 6, 1)
			for _, cut := range []struct{ shards, workers int }{
				{1, 4}, {2, 1}, {2, 4}, {4, 1}, {4, 4},
			} {
				srs := make([]*separability.ShardResult, cut.shards)
				for k := 0; k < cut.shards; k++ {
					sr, err := separability.CheckExhaustiveShard(build(),
						separability.ExhaustiveOptions{
							MaxViolations: 6, Workers: cut.workers,
							Shard: k, Shards: cut.shards,
						})
					if err != nil {
						t.Fatalf("shards=%d workers=%d shard %d: %v",
							cut.shards, cut.workers, k, err)
					}
					srs[k] = sr
				}
				got, err := separability.MergeShards(srs)
				if err != nil {
					t.Fatalf("shards=%d workers=%d: merge: %v", cut.shards, cut.workers, err)
				}
				if base.Summary() != got.Summary() {
					t.Errorf("shards=%d workers=%d: summary %q, want %q",
						cut.shards, cut.workers, got.Summary(), base.Summary())
				}
				if !reflect.DeepEqual(base.Violations, got.Violations) {
					t.Errorf("shards=%d workers=%d: violation lists differ (%d vs %d entries)",
						cut.shards, cut.workers, len(got.Violations), len(base.Violations))
				}
				if !reflect.DeepEqual(base.Checks, got.Checks) {
					t.Errorf("shards=%d workers=%d: check counts differ: %v vs %v",
						cut.shards, cut.workers, got.Checks, base.Checks)
				}
			}
		})
	}
}

// Kill-and-resume on the kernel-shaped model: abort a checkpointed shard
// mid-sweep, resume from the file, and the sealed artifact is identical to
// the uninterrupted shard.
func TestMiniSUECheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive resume differential skipped in -short mode")
	}
	build := func() model.Enumerable { return minisue.New(minisue.RegisterLeak) }
	opt := separability.ExhaustiveOptions{
		MaxViolations: 6, Workers: 2, Shard: 1, Shards: 2, Target: "minisue:register-leak",
	}
	clean, err := separability.CheckExhaustiveShard(build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	abortOpt := opt
	abortOpt.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
	abortOpt.CheckpointEvery = 4
	abortOpt.AbortAfterChunks = 100
	if _, err := separability.CheckExhaustiveShard(build(), abortOpt); !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("abort run: got %v, want ErrAborted", err)
	}
	abortOpt.AbortAfterChunks = 0
	sr, err := separability.CheckExhaustiveShard(build(), abortOpt)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ID != clean.ID || !reflect.DeepEqual(sr, clean) {
		t.Errorf("resumed artifact %s differs from uninterrupted %s", sr.ID, clean.ID)
	}
}

// The checkpoint cadence decides how often a shard rewrites its partial
// file, and nothing else: shard 0 of 2 of the secure sweep (576 chunks)
// writes it 8 times at the default cadence of 64 folded chunks and 71 times
// at a cadence of 8, and both runs leave the same complete file.
func TestCheckpointCadenceWrites(t *testing.T) {
	var complete []byte
	for _, tc := range []struct {
		every int
		want  uint64
	}{{0, 8}, {8, 71}} {
		reg := obs.NewRegistry()
		ck := filepath.Join(t.TempDir(), "shard-0.json")
		_, err := separability.CheckExhaustiveShard(minisue.New(minisue.Secure), separability.ExhaustiveOptions{
			Workers: 1, Shard: 0, Shards: 2, Target: "minisue:secure",
			Checkpoint: ck, CheckpointEvery: tc.every, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.CounterValue("sep_exh_checkpoints_total"); got != tc.want {
			t.Errorf("CheckpointEvery %d: %d partial writes, want %d", tc.every, got, tc.want)
		}
		b, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		if complete != nil && !bytes.Equal(b, complete) {
			t.Errorf("CheckpointEvery %d: complete shard file differs from the default cadence's", tc.every)
		}
		complete = b
	}
}
