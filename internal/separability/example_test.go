package separability_test

import (
	"fmt"

	"repro/internal/separability"
)

// Exhaustive checking of a small system is a proof: every state and input
// is visited and all six conditions verified universally. Leaving the shard
// options zero sweeps the whole space as one shard.
func ExampleCheckExhaustiveShard() {
	for _, v := range []separability.ToyVariant{separability.ToySecure, separability.ToyDirectWrite} {
		sr, err := separability.CheckExhaustiveShard(separability.NewToySystem(v),
			separability.ExhaustiveOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := sr.Result()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println(res.Passed())
		if !res.Passed() {
			fmt.Println(res.ViolatedConditions())
		}
	}
	// Output:
	// true
	// false
	// [condition 2]
}

// Randomized checking scales to systems too large to enumerate; every
// violation it reports is a genuine counterexample.
func ExampleCheckRandomized() {
	sys := separability.NewToySystem(separability.ToyCovertStore)
	res := separability.CheckRandomized(sys, separability.Options{
		Trials: 20, StepsPerTrial: 40, Seed: 7,
	})
	fmt.Println(res.Passed())
	fmt.Println(res.ViolatedConditions())
	// Output:
	// false
	// [condition 1]
}
