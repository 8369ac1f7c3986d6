package minisue_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/minisue"
	"repro/internal/separability"
)

// pinnedShardIDs are the content IDs of every MiniSUE exhaustive shard at
// the default MaxViolations and ChunkSize, keyed "variant k/n". They were
// recorded before the sweep's hot path was made allocation-light, so any
// change to a persisted digest, Detail, count or violation order shows up
// here as an ID mismatch.
var pinnedShardIDs = map[string]string{
	"secure 0/1":             "649b1a701b4450c3",
	"secure 0/2":             "5a5b27b8930ff5ea",
	"secure 1/2":             "c4ea299c0c1e0a57",
	"secure 0/3":             "6ddd76c87609df74",
	"secure 1/3":             "6aab3ebf806cd90f",
	"secure 2/3":             "9198b2d65c54ab0e",
	"register-leak 0/1":      "a3cc47f1b1121491",
	"register-leak 0/2":      "96198672c8a13a54",
	"register-leak 1/2":      "45a37577246198a0",
	"register-leak 0/3":      "e61eae331bfdfd06",
	"register-leak 1/3":      "f71f3a9dbb2314da",
	"register-leak 2/3":      "03a06182193f82c2",
	"interrupt-misroute 0/1": "3d68e2dad73ea652",
	"interrupt-misroute 0/2": "36ec799522cefe46",
	"interrupt-misroute 1/2": "97583e3521ba3301",
	"interrupt-misroute 0/3": "6ab36008e828960e",
	"interrupt-misroute 1/3": "76aa6854fabed1ae",
	"interrupt-misroute 2/3": "15ebb2a05d79bf88",
	"shared-cell 0/1":        "18d25b783ca6435f",
	"shared-cell 0/2":        "bf5b5513d9e5fbcc",
	"shared-cell 1/2":        "749d3a66f5eff8d9",
	"shared-cell 0/3":        "ee0f472682b41fcf",
	"shared-cell 1/3":        "09e7196dc45bb4d0",
	"shared-cell 2/3":        "ecdabeca3393d36d",
}

// pinnedCheckpointID is the content ID of the checkpoint a single-worker
// minisue:shared-cell sweep writes when it aborts after pinnedAbortChunks
// folded chunks: a mid-sweep accumulator with saturated conditions.
const (
	pinnedAbortChunks  = 100
	pinnedCheckpointID = "bed26f748fcf4da5"
)

var pinVariants = []minisue.Variant{
	minisue.Secure, minisue.RegisterLeak, minisue.InterruptMisroute, minisue.SharedCell,
}

func TestExhaustiveShardIDsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive shard pins skipped in -short mode")
	}
	for _, v := range pinVariants {
		target := "minisue:" + minisue.VariantName(v)
		for shards := 1; shards <= 3; shards++ {
			for k := 0; k < shards; k++ {
				key := fmt.Sprintf("%s %d/%d", minisue.VariantName(v), k, shards)
				for _, workers := range []int{1, 2} {
					sr, err := separability.CheckExhaustiveShard(minisue.New(v),
						separability.ExhaustiveOptions{Target: target,
							Shard: k, Shards: shards, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if want := pinnedShardIDs[key]; sr.ID != want {
						t.Errorf("%s workers=%d: shard ID %s, want %s", key, workers, sr.ID, want)
					}
				}
			}
		}
	}
}

func TestExhaustiveCheckpointIDPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive checkpoint pin skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	_, err := separability.CheckExhaustiveShard(minisue.New(minisue.SharedCell),
		separability.ExhaustiveOptions{Target: "minisue:shared-cell", Workers: 1,
			Checkpoint: path, AbortAfterChunks: pinnedAbortChunks})
	if !errors.Is(err, separability.ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	ck, err := separability.ReadShardCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Frontier != pinnedAbortChunks {
		t.Errorf("frontier %d, want %d", ck.Frontier, pinnedAbortChunks)
	}
	if ck.ID != pinnedCheckpointID {
		t.Errorf("checkpoint ID %s, want %s", ck.ID, pinnedCheckpointID)
	}
}
