package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/separability"
)

// The library in one example: declare two isolated regimes, run them,
// verify the kernel, then break the kernel and catch it.
func Example() {
	count := `
	.org 0x40
start:
	MOV #0, R5
loop:
	ADD #1, R5
	MOV R5, @0x20
	TRAP #SWAP
	BR loop
`
	sys := core.NewBuilder().
		RegimeSized("red", count, 0x200).
		RegimeSized("black", count, 0x200).
		MustBuild()
	sys.Run(1000)
	r, _ := sys.RegimeWord("red", 0x20)
	b, _ := sys.RegimeWord("black", 0x20)
	fmt.Println("both made progress:", r > 50 && b > 50)

	honest := sys.Verify(separability.Options{Trials: 4, StepsPerTrial: 40, Seed: 1})
	fmt.Println("honest kernel verifies:", honest.Passed())

	leaky := core.NewBuilder().
		RegimeSized("red", count, 0x200).
		RegimeSized("black", count, 0x200).
		WithLeaks(kernel.Leaks{RegisterLeak: true}).
		MustBuild()
	report := leaky.Verify(separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 1})
	fmt.Println("register-leak kernel verifies:", report.Passed())
	// Output:
	// both made progress: true
	// honest kernel verifies: true
	// register-leak kernel verifies: false
}
