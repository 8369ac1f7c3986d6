package artifact_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/watch"
	"repro/internal/witness"
)

// pinWitness, pinRecord and the toy sweeps below are fixed inputs whose
// content IDs were computed before the three stores shared this package.
func pinWitness() *witness.Witness {
	return &witness.Witness{
		System: witness.SystemSpec{Kind: "verifysys", Leak: "RegisterLeak", Cut: true},
		Seed:   99, Trial: 3, Step: 41, CheckSeed: 12345, Sched: true,
		Condition: 3, ConditionName: "condition-3", Colour: "RED", Op: "swap",
		Detail: "input 0: r5 differs", Want: "00000000000000aa", Got: "00000000000000bb",
		OrigSteps: 42, ShrinkReplays: 7,
		Snapshot: artifact.Hash([]byte("pre-state")),
		Steps:    []witness.Step{{Input: json.RawMessage(`null`)}, {Input: json.RawMessage(`{"dev":0,"word":65}`)}},
		Events:   []obs.Event{{Cycle: 5, Kind: obs.EvChanSend, Regime: 1, Arg: 0, Value: 7, Occ: 1, Name: "wp"}},
	}
}

func pinRecord(time int64) *watch.Record {
	return &watch.Record{Spec: verifysys.SpecFor("", true, false),
		Build: watch.BuildInfo{GoVersion: "go1.22", Label: "pin"}, Time: time,
		Seed: 7, Trials: 3, Steps: 50, Checks: 1234, States: 150,
		Violations: []separability.ViolationRecord{{Condition: 2, Colour: "RED", Op: "swap", Step: 4,
			Want: "00000000000000aa", Got: "00000000000000bb"}},
		TraceEvents: 2, TraceDigest: "cbf29ce484222325",
		Regimes:  []watch.RegimeDigest{{Regime: 0, Events: 2, Digest: "0123456789abcdef"}},
		Channels: []watch.ChannelStat{{Channel: 0, Sends: 1}},
		Drift:    []watch.Drift{{Kind: watch.DriftVerdictFlip, Regime: -1, DivergeAt: -1, Detail: "PASS -> FAIL"}},
	}
}

func toySweep(opt separability.ExhaustiveOptions) (*separability.ShardResult, error) {
	opt.MaxViolations, opt.Workers, opt.ChunkSize, opt.Target = 4, 1, 16, "toy:direct-write"
	return separability.CheckExhaustiveShard(separability.NewToySystem(separability.ToyDirectWrite), opt)
}

// The bytes on disk are unchanged: one record of each sealed kind keeps the
// content ID it had before the stores moved onto package artifact.
func TestContentIDsPinned(t *testing.T) {
	w := pinWitness()
	if err := artifact.Seal(w, &w.ID); err != nil {
		t.Fatal(err)
	}
	if w.ID != "4a081b661621f261" {
		t.Errorf("witness ID %s, want 4a081b661621f261", w.ID)
	}
	line, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := witness.ReadManifest(line); err != nil {
		t.Errorf("pinned witness rejected by the manifest reader: %v", err)
	}

	led, err := watch.OpenLedger(t.TempDir(), "honest")
	if err != nil {
		t.Fatal(err)
	}
	rec := pinRecord(1700000000)
	if err := led.Append(rec, []byte("trace\n")); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "9503179e8b050a5f" {
		t.Errorf("build record ID %s, want 9503179e8b050a5f", rec.ID)
	}

	sr, err := toySweep(separability.ExhaustiveOptions{Shard: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sr.ID != "e531ee4e978129e7" {
		t.Errorf("shard result ID %s, want e531ee4e978129e7", sr.ID)
	}

	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := toySweep(separability.ExhaustiveOptions{Checkpoint: ck, CheckpointEvery: 1,
		AbortAfterChunks: 5}); !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("abort: %v", err)
	}
	c, err := separability.ReadShardCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "01bd80e546a8688d" {
		t.Errorf("shard checkpoint ID %s, want 01bd80e546a8688d", c.ID)
	}
}

// store drives one artifact store through its exported API.
type store struct {
	name string
	// prior lays down the store's state before the write under test.
	prior func(t *testing.T, dir string)
	// write performs the write under test and returns the content ID of
	// the record it adds.
	write func(t *testing.T, dir string) string
	// view reads the whole store back, verifying every record and blob,
	// and lists the IDs it holds ("" for an absent store).
	view func(dir string) (string, error)
}

func stores(t *testing.T) []store {
	// Two leaks, so the second capture adds a snapshot blob as well as a
	// manifest line.
	capturer := func(leak string) func(t *testing.T, dir string) string {
		spec := verifysys.SpecFor(leak, true, false)
		sys, err := verifysys.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		copt := separability.Options{Trials: 10, StepsPerTrial: 100, Seed: 99}
		res := separability.CheckRandomized(sys, copt)
		return func(t *testing.T, dir string) string {
			ws, err := witness.Capture(sys, copt, res, witness.Options{Dir: dir, System: spec,
				MaxWitnesses: 1, ShrinkReplays: -1})
			if err != nil || len(ws) != 1 {
				t.Fatalf("capture: %d witnesses, %v", len(ws), err)
			}
			return ws[0].ID
		}
	}
	captureFirst, captureSecond := capturer("SharedScratch"), capturer("RegisterLeak")

	appendRecord := func(t *testing.T, dir string, n int64) string {
		var trace bytes.Buffer
		if err := obs.WriteJSONL(&trace, []obs.Event{{Cycle: uint64(n), Kind: obs.EvChanSend, Value: uint64(n)}}); err != nil {
			t.Fatal(err)
		}
		led, err := watch.OpenLedger(dir, "honest")
		if err != nil {
			t.Fatal(err)
		}
		rec := pinRecord(1700000000 + n)
		if err := led.Append(rec, trace.Bytes()); err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}

	sr, err := toySweep(separability.ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckOpt := func(dir string, abortAfter int) separability.ExhaustiveOptions {
		return separability.ExhaustiveOptions{Checkpoint: filepath.Join(dir, "ck.json"),
			CheckpointEvery: 1, AbortAfterChunks: abortAfter}
	}

	return []store{{
		name:  "witness",
		prior: func(t *testing.T, dir string) { captureFirst(t, dir) },
		write: captureSecond,
		view: func(dir string) (string, error) {
			ws, err := witness.Load(dir)
			var ids []string
			for _, w := range ws {
				if err == nil {
					err = w.LoadState(dir)
				}
				ids = append(ids, w.ID)
			}
			return strings.Join(ids, ","), err
		},
	}, {
		name:  "ledger",
		prior: func(t *testing.T, dir string) { appendRecord(t, dir, 1) },
		write: func(t *testing.T, dir string) string { return appendRecord(t, dir, 2) },
		view: func(dir string) (string, error) {
			led, err := watch.OpenLedger(dir, "honest")
			if err != nil {
				return "", err
			}
			recs, err := led.Records()
			var ids []string
			for _, r := range recs {
				if _, lerr := led.LoadTrace(r); err == nil {
					err = lerr
				}
				ids = append(ids, r.ID)
			}
			return strings.Join(ids, ","), err
		},
	}, {
		name:  "shard-result",
		prior: func(t *testing.T, dir string) {},
		write: func(t *testing.T, dir string) string {
			if err := sr.WriteFile(filepath.Join(dir, "shard.json")); err != nil {
				t.Fatal(err)
			}
			return sr.ID
		},
		view: func(dir string) (string, error) {
			path := filepath.Join(dir, "shard.json")
			if _, err := os.Stat(path); os.IsNotExist(err) {
				return "", nil
			}
			got, err := separability.ReadShardResult(path)
			if err != nil {
				return "", err
			}
			return got.ID, nil
		},
	}, {
		name: "shard-checkpoint",
		prior: func(t *testing.T, dir string) {
			if _, err := toySweep(ckOpt(dir, 5)); !errors.Is(err, separability.ErrAborted) {
				t.Fatalf("abort: %v", err)
			}
		},
		write: func(t *testing.T, dir string) string {
			got, err := toySweep(ckOpt(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != sr.ID {
				t.Errorf("resumed sweep sealed %s, uninterrupted %s", got.ID, sr.ID)
			}
			ck, err := separability.ReadShardCheckpoint(filepath.Join(dir, "ck.json"))
			if err != nil {
				t.Fatal(err)
			}
			return ck.ID
		},
		view: func(dir string) (string, error) {
			ck, err := separability.ReadShardCheckpoint(filepath.Join(dir, "ck.json"))
			if err != nil || ck == nil {
				return "", err
			}
			return ck.ID, nil
		},
	}}
}

// snapshotTree returns every file under dir by slash-separated relative
// path.
func snapshotTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func put(t *testing.T, dir, rel string, b []byte) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashConsistencyMatrix stages, for every store, each on-disk state a
// kill can leave at the write's boundaries: the first k changed files
// renamed into place and the next one either untouched, or present only as
// a temp file holding part of its bytes (a short write) or all of them.
// Blobs are renamed before the manifest or ledger that names them. Until
// the last rename the store must read back, fully verified, as its prior
// content, and rerunning the write must converge on the same content ID
// and the same bytes; after it, the store holds the new sealed record.
//
// Before the stores shared package artifact, a manifest or ledger append
// was an O_APPEND write to the live file, and a short write left a torn
// final line that made every later read fail. The short-write cases below
// are that failure: the torn bytes now land in a temp file no reader opens.
func TestCrashConsistencyMatrix(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.name, func(t *testing.T) {
			ref := t.TempDir()
			s.prior(t, ref)
			before := snapshotTree(t, ref)
			oldView, err := s.view(ref)
			if err != nil {
				t.Fatal(err)
			}
			id := s.write(t, ref)
			after := snapshotTree(t, ref)
			newView, err := s.view(ref)
			if err != nil {
				t.Fatal(err)
			}
			if newView == oldView || !strings.Contains(newView, id) {
				t.Fatalf("write of %s moved the store from %q to %q", id, oldView, newView)
			}

			var changed []string
			for p, b := range after {
				if strings.Contains(p, ".tmp-") {
					t.Errorf("write left temp file %s", p)
				}
				if old, ok := before[p]; !ok || !bytes.Equal(old, b) {
					changed = append(changed, p)
				}
			}
			sort.Slice(changed, func(i, j int) bool {
				bi, bj := strings.HasPrefix(changed[i], "blobs/"), strings.HasPrefix(changed[j], "blobs/")
				if bi != bj {
					return bi
				}
				return changed[i] < changed[j]
			})

			for k := 0; k <= len(changed); k++ {
				for _, tmp := range []string{"none", "short-write", "full-write"} {
					if k == len(changed) && tmp != "none" {
						continue
					}
					t.Run(strings.Join(append(append([]string{}, changed[:k]...), tmp), "+"), func(t *testing.T) {
						dir := t.TempDir()
						for p, b := range before {
							put(t, dir, p, b)
						}
						for _, p := range changed[:k] {
							put(t, dir, p, after[p])
						}
						if tmp != "none" {
							b := after[changed[k]]
							if tmp == "short-write" {
								b = b[:len(b)-len(b)/3-1]
							}
							put(t, dir, changed[k]+".tmp-crash", b)
						}

						want := oldView
						if k == len(changed) {
							want = newView
						}
						if got, err := s.view(dir); err != nil || got != want {
							t.Fatalf("after the kill the store reads %q (%v), want %q", got, err, want)
						}
						if k == len(changed) {
							return
						}
						if again := s.write(t, dir); again != id {
							t.Errorf("retry sealed %s, want %s", again, id)
						}
						if got, err := s.view(dir); err != nil || got != newView {
							t.Errorf("after retry the store reads %q (%v), want %q", got, err, newView)
						}
						for _, p := range changed {
							b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(p)))
							if err != nil || !bytes.Equal(b, after[p]) {
								t.Errorf("after retry %s differs from the uninterrupted write", p)
							}
						}
					})
				}
			}
		})
	}
}
