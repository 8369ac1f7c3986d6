package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// A bad flag is a usage error (exit 2) reported before any worker starts:
// the fleet directory stays empty. A non-positive -poll used to start the
// workers and then panic in the poll ticker.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-poll", "0"}, "-poll must be positive"},
		{[]string{"-poll", "-1s"}, "-poll must be positive"},
		{[]string{"-shards", "0"}, "-shards must be >= 1"},
		{[]string{"-kill-once", "x"}, "bad -kill-once"},
		{[]string{"-target", ""}, "-target is required"},
		{[]string{"-target", "nosuch:target"}, "nosuch:target"},
	} {
		dir := filepath.Join(t.TempDir(), "fleet")
		args := append([]string{"-target", "toy:direct-write", "-shards", "1",
			"-sepverify", filepath.Join(dir, "sepverify"), "-dir", dir}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to mention %q", tc.args, stderr.String(), tc.want)
		}
		if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
			t.Errorf("%v: fleet dir holds %d entries, want none before a worker starts", tc.args, len(entries))
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
		Checkpoint: f.shardPath(0), Target: "toy:secure",
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
