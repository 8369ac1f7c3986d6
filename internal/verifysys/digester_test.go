package verifysys_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// xorDigester gives an Enumerable a model.Digester that preserves Φ^c
// equality but is not the FNV-1a digest of the rendering.
type xorDigester struct{ model.Enumerable }

func (x xorDigester) AbstractDigest(c model.Colour) uint64 {
	return model.DigestString(x.Abstract(c)) ^ 0x5555555555555555
}

// Clone returns the wrapper, so that every replica digests alike.
func (x xorDigester) Clone() model.SharedSystem {
	r, ok := x.Enumerable.(model.Replicable)
	if !ok {
		return nil
	}
	clone, ok := r.Clone().(model.Enumerable)
	if !ok {
		return nil
	}
	return xorDigester{clone}
}

// TestDigesterDoesNotReachArtifacts checks that the in-memory digest a
// system compares Φ^c with never reaches a persisted byte: every exhaustive
// target swept through a non-FNV Digester yields the same shard-result IDs
// and checkpoint files as the bare system, at every shard and worker count.
func TestDigesterDoesNotReachArtifacts(t *testing.T) {
	dir := t.TempDir()
	sweep := func(sys model.Enumerable, target, label string, shard, shards, workers int) (string, []byte) {
		t.Helper()
		ck := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-%d-%d.ck", target, label, shard, shards, workers))
		sr, err := separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
			Target: target, Shard: shard, Shards: shards, Workers: workers, Checkpoint: ck,
		})
		if err != nil {
			t.Fatalf("%s %s shard %d/%d workers %d: %v", target, label, shard, shards, workers, err)
		}
		b, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		return sr.ID, b
	}
	for _, tg := range verifysys.ExhaustiveTargets() {
		for _, shards := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				for shard := 0; shard < shards; shard++ {
					wantID, wantCk := sweep(tg.Build(), tg.Name, "bare", shard, shards, workers)
					gotID, gotCk := sweep(xorDigester{tg.Build()}, tg.Name, "xor", shard, shards, workers)
					if gotID != wantID {
						t.Errorf("%s shard %d/%d workers %d: shard ID %s through the Digester, %s bare",
							tg.Name, shard, shards, workers, gotID, wantID)
					}
					if !bytes.Equal(gotCk, wantCk) {
						t.Errorf("%s shard %d/%d workers %d: checkpoint bytes differ through the Digester",
							tg.Name, shard, shards, workers)
					}
				}
			}
		}
	}
}
