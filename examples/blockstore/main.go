// blockstore runs a shared resource manager as a REGIME: a block-store
// server written in SM11 assembly, serving two client regimes over
// kernel-mediated channels. The per-tenant access policy (alice owns slots
// 0–15, bob 16–31) lives entirely in the server component; the separation
// kernel underneath knows nothing about slots, tenants or policy — the
// paper's architecture, all the way down to machine code.
//
//	go run ./examples/blockstore
package main

import (
	"fmt"
	"log"

	"repro/internal/blockstore"
	"repro/internal/machine"
)

func main() {
	alice := []machine.Word{
		blockstore.Put(3, 0x5A), // store 0x5A in my slot 3
		blockstore.Get(3),       // read it back
		blockstore.Get(20),      // try to read bob's slot 20
	}
	bob := []machine.Word{
		blockstore.Put(20, 0x7B),
		blockstore.Get(20),
		blockstore.Put(3, 0xFF), // try to clobber alice's slot 3
	}
	sys, err := blockstore.Build(alice, bob)
	if err != nil {
		log.Fatal(err)
	}
	sys.K.RunUntilIdle(200000)
	if sys.K.Dead() {
		log.Fatalf("kernel died: %v", sys.K.Cause)
	}

	show := func(name string, reqs []machine.Word) {
		replies, err := sys.Replies(name, len(reqs))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", name)
		for i, r := range reqs {
			verdict := fmt.Sprintf("-> %#04x", replies[i])
			if replies[i] == blockstore.ErrWord {
				verdict = "-> DENIED by the server component"
			}
			op := "GET"
			if r&blockstore.OpPut != 0 {
				op = "PUT"
			}
			fmt.Printf("  %s slot %-2d  %s\n", op, int(r>>8)&0x7f, verdict)
		}
	}
	show("alice", alice)
	show("bob", bob)

	st := sys.K.Stats()
	fmt.Printf("\nkernel: %d swaps, %d instructions for the server regime\n",
		st.Swaps, st.InstrPerRegime[0])
	fmt.Println("the kernel mediated every word and enforced none of the policy —")
	fmt.Println("\"policy enforcement is not the concern of a security kernel.\"")
}
