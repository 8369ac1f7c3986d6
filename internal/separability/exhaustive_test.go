package separability

import (
	"testing"

	"repro/internal/model"
)

// refBlocks holds the states in enumeration order across block edges.
func TestRefBlocks(t *testing.T) {
	for _, n := range []int{0, 1, refBlockSize, refBlockSize + 1} {
		var r refBlocks
		for i := 0; i < n; i++ {
			r.add(model.StateRef(i))
		}
		if r.len() != n {
			t.Fatalf("n=%d: len %d", n, r.len())
		}
		if want := (n + refBlockSize - 1) / refBlockSize; len(r.blocks) != want {
			t.Errorf("n=%d: %d blocks, want %d", n, len(r.blocks), want)
		}
		for i := 0; i < n; i++ {
			if got := r.at(i); got != model.StateRef(i) {
				t.Fatalf("n=%d: at(%d) = %v", n, i, got)
			}
		}
	}
}
