// timingchannel demonstrates the boundary of the paper's security model,
// quantitatively: a covert channel on the honest separation kernel built
// from nothing but scheduling — and the fixed-time-slice scheduler that
// closes it.
//
//	go run ./examples/timingchannel
package main

import (
	"fmt"
	"log"

	"repro/internal/separability"
	"repro/internal/timingchan"
)

func main() {
	fmt.Println("A sender regime modulates how long it holds the CPU before its")
	fmt.Println("voluntary SWAP; a receiver regime (owning a clock device) thresholds")
	fmt.Println("the gaps between its own turns. No shared memory. No channels.")
	fmt.Println()

	res, sys, err := timingchan.Run(64, 11, 60, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic SUE scheduling (run until SWAP):  %s\n", res.Covert)

	check := separability.CheckRandomized(sys, separability.Options{
		Trials: 6, StepsPerTrial: 60, Seed: 3, CheckScheduling: true,
	})
	fmt.Printf("Proof of Separability on that system:     %s\n", check.Summary())
	fmt.Println()
	fmt.Println("Bits flowed, yet the check passes — correctly: the six conditions")
	fmt.Println("(and the paper, §3: \"denial of service is not a security problem\")")
	fmt.Println("scope wall-clock scheduling out of the model.")
	fmt.Println()

	resF, sysF, err := timingchan.RunFixed(64, 11, 60, 40, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed time slices (200 cycles each):      %s\n", resF.Covert)
	checkF := separability.CheckRandomized(sysF, separability.Options{
		Trials: 6, StepsPerTrial: 60, Seed: 3, CheckScheduling: true,
	})
	fmt.Printf("Proof of Separability, fixed slices:      %s\n", checkF.Summary())
	fmt.Println()
	fmt.Println("Fixed slices (the time partitioning later separation kernels adopted)")
	fmt.Println("make every rotation take identical wall-clock time: the channel's")
	fmt.Println("capacity collapses to noise while the kernel still verifies and")
	fmt.Println("ordinary workloads still run.")
}
