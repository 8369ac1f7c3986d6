package separability

import (
	"math"
	"math/rand"
	"testing"
)

// A worker reseeds one walk RNG per trial instead of building a source per
// trial; the reseeded stream must be the stream a fresh source draws, or
// every randomized verdict and witness would move.
func TestReseededWalkMatchesFreshSource(t *testing.T) {
	walk := newWalkRand()
	for _, seed := range []int64{0, 1, -1, math.MaxInt64} {
		walk.Int63() // leave the reused source mid-stream
		walk.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			var got, want int64
			switch i % 3 {
			case 0:
				got, want = walk.Int63(), fresh.Int63()
			case 1:
				got, want = int64(walk.Intn(400)), int64(fresh.Intn(400))
			case 2:
				got, want = int64(walk.Uint32()), int64(fresh.Uint32())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, got, want)
			}
		}
	}
}

// The mask path for powers of two returns what the modulo form returns.
func TestStepRandIntnMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 64, 400} {
		for _, seed := range []int64{0, 1, -1, math.MaxInt64, 12345} {
			r, ref := new(stepRand).reseed(seed), new(stepRand).reseed(seed)
			for i := 0; i < 1000; i++ {
				if got, want := r.Intn(n), int(ref.next()%uint64(n)); got != want {
					t.Fatalf("n=%d seed %d draw %d: Intn %d, modulo %d", n, seed, i, got, want)
				}
			}
		}
	}
}
