package main

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/separability"
)

func TestParseKillOnce(t *testing.T) {
	tests := []struct {
		in           string
		shard, after int
		wantErr      bool
	}{
		{"", -1, 0, false},
		{"0@2", 0, 2, false},
		{"3@0", 3, 0, false},
		{"12@345", 12, 345, false},
		{"2", 0, 0, true},
		{"@2", 0, 0, true},
		{"a@2", 0, 0, true},
		{"2@b", 0, 0, true},
		{"-1@2", 0, 0, true},
		{"1@-2", 0, 0, true},
	}
	for _, tc := range tests {
		shard, after, err := parseKillOnce(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseKillOnce(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && (shard != tc.shard || after != tc.after) {
			t.Errorf("parseKillOnce(%q) = (%d, %d), want (%d, %d)",
				tc.in, shard, after, tc.shard, tc.after)
		}
	}
}

// The per-shard gauges must follow a real checkpoint artifact: frontier
// tracks the folded-chunk position, and the age gauge resets on advance so
// a stalled shard shows up as a growing age before the stall detector
// kills it.
func TestPollCheckpointShardGauges(t *testing.T) {
	dir := t.TempDir()
	f := &fleet{
		shards: 1, dir: dir,
		reg:         obs.NewRegistry(),
		frontiers:   []int{0},
		lastAdvance: []time.Time{time.Now().Add(-time.Hour)},
		killShard:   -1,
	}
	f.frontierG = []*obs.Gauge{f.reg.Gauge(`sep_fleet_shard_frontier{shard="0"}`)}
	f.ageG = []*obs.Gauge{f.reg.Gauge(`sep_fleet_shard_checkpoint_age_seconds{shard="0"}`)}

	// No checkpoint file yet: nothing advances.
	if f.pollCheckpoint(0, nil) {
		t.Fatal("advanced with no checkpoint file")
	}

	// Write a real (aborted mid-sweep) checkpoint and poll it.
	sys := separability.NewToySystem(separability.ToySecure)
	_, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
		Workers: 1, ChunkSize: 1, CheckpointEvery: 1, AbortAfterChunks: 2,
		Checkpoint: f.checkpointPath(0), Target: "toy:secure",
	})
	if err == nil {
		t.Fatal("want ErrAborted from the chunk budget")
	}
	if !f.pollCheckpoint(0, nil) {
		t.Fatal("valid checkpoint did not advance the frontier")
	}
	if got := f.reg.GaugeValue(`sep_fleet_shard_frontier{shard="0"}`); got < 2 {
		t.Errorf("frontier gauge = %g, want >= 2", got)
	}
	if age := f.reg.GaugeValue(`sep_fleet_shard_checkpoint_age_seconds{shard="0"}`); age > 60 {
		t.Errorf("age gauge = %gs, want freshly reset", age)
	}

	// Re-polling the same checkpoint is not an advance; age keeps growing.
	f.lastAdvance[0] = time.Now().Add(-30 * time.Second)
	if f.pollCheckpoint(0, nil) {
		t.Error("unchanged checkpoint counted as advance")
	}
	if age := f.reg.GaugeValue(`sep_fleet_shard_checkpoint_age_seconds{shard="0"}`); age < 29 {
		t.Errorf("age gauge = %gs, want ~30s for a stalled shard", age)
	}
}
