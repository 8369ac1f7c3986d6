// Quickstart: build a two-regime separation-kernel system, watch it run,
// then verify it with Proof of Separability — the whole paper in ~80 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// Two regimes. RED counts; BLACK counts. They share one processor and, by
// construction, nothing else: no channels are configured, so the kernel's
// job is pure separation.
const red = `
	.org 0x40
start:
	MOV #0, R5
loop:
	ADD #2, R5        ; RED counts in twos (in R5, the register the
	MOV R5, @0x20     ; RegisterLeak bug below fails to reload)
	TRAP #SWAP
	BR loop
`

const black = `
	.org 0x40
start:
	MOV #0, R5
loop:
	ADD #3, R5        ; BLACK counts in threes
	MOV R5, @0x20
	TRAP #SWAP
	BR loop
`

// spec declares the system; leak names a planted kernel fault (empty for
// the honest kernel).
func spec(leak string) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", Leak: leak,
		Regimes: []witness.RegimeSpec{
			{Name: "red", Source: red, Size: 0x200},
			{Name: "black", Source: black, Size: 0x200},
		}}
}

func main() {
	sys, err := verifysys.FromSpec(spec(""))
	if err != nil {
		log.Fatal(err)
	}

	sys.K.Run(2000)
	r, _ := sys.K.RegimeWord("red", 0x20)
	b, _ := sys.K.RegimeWord("black", 0x20)
	fmt.Printf("after 2000 cycles: red counted to %d, black to %d\n", r, b)
	fmt.Printf("kernel stats: %+v\n\n", sys.K.Stats())

	// Verify: the six conditions of the paper's Appendix, checked on
	// randomly explored reachable states with Φ-preserving perturbations.
	fmt.Println("running Proof of Separability on the honest kernel...")
	res := separability.CheckRandomized(sys, separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 1})
	fmt.Println("  ", res.Summary())

	// Now deliberately break the kernel: don't reload R5 on context
	// switches (the exact hazard of the paper's SWAP discussion) and
	// verify again.
	fmt.Println("injecting the RegisterLeak bug and re-verifying...")
	leaky, err := verifysys.FromSpec(spec("RegisterLeak"))
	if err != nil {
		log.Fatal(err)
	}
	res = separability.CheckRandomized(leaky, separability.Options{Trials: 6, StepsPerTrial: 60, Seed: 1})
	fmt.Println("  ", res.Summary())
	if !res.Passed() {
		fmt.Println("   first counterexample:", res.Violations[0])
	}
}
