package separability

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/minisue"
	"repro/internal/model"
)

// The fold-prefix rule skips building a violation once the folded
// accumulator holds MaxViolations of its condition for its colour. These
// tests compare chunked sweeps against the same sweep as one chunk, where
// the rule can never fire (the only fold is the last), so a rule that
// saturates too early loses a violation and shows up as a diff.

// oneChunk sweeps sys as a single chunk: the reference the fold-prefix
// rule must reproduce.
func oneChunk(t *testing.T, sys model.Enumerable, max int) []*ResultRecord {
	t.Helper()
	states := 0
	sys.EnumerateStates(func(model.StateRef) bool { states++; return true })
	sr, _, err := checkExhaustiveShard(sys, ExhaustiveOptions{
		MaxViolations: max, Workers: 1, ChunkSize: states})
	if err != nil {
		t.Fatal(err)
	}
	return sr.PerColour
}

// Every toy variant, whose violations are sparse enough at small chunk
// sizes for the folded count to pass through every value below the cap.
func TestSaturationMatchesOneChunk(t *testing.T) {
	for v := ToySecure; v <= ToyNextOpLeak; v++ {
		for _, max := range []int{1, 2, 3, 5} {
			want := oneChunk(t, NewToySystem(v), max)
			for _, chunk := range []int{1, 3, 64} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s max=%d chunk=%d workers=%d",
						ToyVariantName(v), max, chunk, workers)
					sr, _, err := checkExhaustiveShard(NewToySystem(v), ExhaustiveOptions{
						MaxViolations: max, Workers: workers, ChunkSize: chunk})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(sr.PerColour, want) {
						t.Errorf("%s: per-colour results differ from the one-chunk sweep", name)
					}
				}
			}
		}
	}
}

// The kernel-shaped case: MiniSUE's shared cell at a small chunk size,
// where one chunk's fold leaves a condition one short of the cap.
func TestSaturationMatchesOneChunkMiniSUE(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive MiniSUE sweep skipped in -short mode")
	}
	want := oneChunk(t, minisue.New(minisue.SharedCell), 5)
	sr, _, err := checkExhaustiveShard(minisue.New(minisue.SharedCell), ExhaustiveOptions{
		MaxViolations: 5, Workers: 1, ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr.PerColour, want) {
		t.Error("per-colour results differ from the one-chunk sweep")
	}
}

// A run resumed from a checkpoint written after saturation must seed the
// masks from the checkpoint: then it builds exactly the violations the
// uninterrupted run builds over the same chunks, so the truncation counts
// of the two halves add up to the whole run's. Single-worker runs make the
// mask each chunk sees deterministic.
func TestSaturationSeededOnResume(t *testing.T) {
	const chunk, max, abortAfter = 8, 3, 70
	for _, v := range []ToyVariant{ToyCovertStore, ToyDirectWrite} {
		name := ToyVariantName(v)
		opt := ExhaustiveOptions{MaxViolations: max, Workers: 1, ChunkSize: chunk}
		full, fullStats, err := checkExhaustiveShard(NewToySystem(v), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		opt.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
		opt.AbortAfterChunks = abortAfter
		_, head, err := checkExhaustiveShard(NewToySystem(v), opt)
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: abort run: got %v, want ErrAborted", name, err)
		}
		ck, err := ReadShardResult(opt.Checkpoint)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		saturated := false
		for ci, rr := range ck.PerColour {
			r, err := rr.result()
			if err != nil {
				t.Fatalf("%s: colour %d: %v", name, ci, err)
			}
			saturated = saturated || saturatedConditions(r.Violations, max) != 0
		}
		if !saturated {
			t.Fatalf("%s: checkpoint at frontier %d saturates no condition", name, ck.Frontier)
		}

		opt.AbortAfterChunks = 0
		resumed, tail, err := checkExhaustiveShard(NewToySystem(v), opt)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if resumed.ID != full.ID {
			t.Errorf("%s: resumed shard %s, uninterrupted %s", name, resumed.ID, full.ID)
		}
		if head.truncated+tail.truncated != fullStats.truncated {
			t.Errorf("%s: truncated %d before the checkpoint + %d after, want %d in all",
				name, head.truncated, tail.truncated, fullStats.truncated)
		}
	}
}
