// Package timingchan builds a scheduling/timing covert channel on the real
// SUE-Go kernel — the channel the paper's model deliberately permits.
//
// The paper scopes it out explicitly: "Because the whole system is
// dedicated to a single function, 'denial of service' is not a security
// problem (although it is clearly a reliability issue)" (§3). Under
// round-robin-until-voluntary-SWAP scheduling, a sender regime can
// modulate how long it holds the CPU; a receiver regime that owns a clock
// device observes the gaps between its own turns and decodes bits — with
// no shared memory, no channels, and no kernel bug.
//
// The package's tests measure the channel (it works, reliably) and then
// run Proof of Separability over the very same system (it PASSES): an
// executable, quantitative demonstration of where the six conditions'
// guarantee ends. The scheduling-independence extension in package
// separability does not catch it either — correctly, because the kernel's
// *decision* sequence is untainted; it is the wall-clock duration of the
// sender's turns that carries the bits, and wall-clock time is outside
// the model.
package timingchan

import (
	"fmt"
	"strings"

	"repro/internal/covert"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// senderSrc modulates CPU hold time per bit: a long busy loop for 1, an
// immediate yield for 0. The bit table is assembled into its partition.
func senderSrc(bits []int, busy int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `
	.org 0x40
	.equ NBITS, %d
start:
	MOV #0, R4          ; bit index
	TRAP #SWAP          ; let the receiver take its clock baseline first
loop:
	CMP #NBITS, R4
	BEQ done
	MOV R4, R3
	ADD #bits, R3
	MOV (R3), R2        ; the bit
	CMP #1, R2
	BNE yield
	MOV #%d, R3         ; bit 1: hold the CPU
busy:
	SUB #1, R3
	BNE busy
yield:
	ADD #1, R4
	TRAP #SWAP
	BR loop
done:
	TRAP #SWAP
	BR done
bits:
`, len(bits), busy)
	for _, bit := range bits {
		fmt.Fprintf(&b, "\t.word %d\n", bit)
	}
	return b.String()
}

// receiverSrc samples its clock's free-running counter once per scheduling
// turn; a large delta means the sender held the CPU. Decoded bits land at
// virtual 0x200+i.
func receiverSrc(nbits, threshold int) string {
	return fmt.Sprintf(`
	.org 0x40
	.equ NBITS, %d
	.equ THRESH, %d
start:
	MOV @DEV0+1, R5     ; clock COUNT baseline
	MOV #0, R4          ; bit index
	TRAP #SWAP          ; align with the sender's first turn
loop:
	CMP #NBITS, R4
	BEQ done
	MOV @DEV0+1, R2
	MOV R2, R3
	SUB R5, R3          ; delta since our last turn
	MOV R2, R5
	MOV #0, R1
	CMP #THRESH, R3     ; THRESH - delta
	BGT store           ; THRESH > delta: short gap: bit 0
	MOV #1, R1
store:
	MOV R4, R0
	ADD #0x200, R0
	MOV R1, (R0)
	ADD #1, R4
	TRAP #SWAP
	BR loop
done:
	MOV #1, @0x100      ; completion flag
	TRAP #SWAP
	BR done
`, nbits, threshold)
}

// Result reports one timing-channel run.
type Result struct {
	Sent     []int
	Decoded  []int
	Covert   covert.Measurement
	Finished bool
}

// Config parameterizes one timing-channel run.
type Config struct {
	NBits     int    // bits to transmit
	Seed      uint64 // PRNG seed for the sent bitstring
	Busy      int    // sender's hold-loop length for a 1 bit
	Threshold int    // receiver's decision boundary in clock ticks
	// FixedSlice, when > 0, enables the kernel's fixed-slice scheduling
	// (the channel cut); 0 keeps round-robin-until-voluntary-SWAP.
	FixedSlice int
	// Tracer, when non-nil, is attached to the kernel and machine for the
	// whole run, so cmd/septrace can measure the channel from the event
	// stream alone.
	Tracer obs.Tracer
	// StopOnFinish polls the receiver's completion flag between bursts and
	// ends the run as soon as the transfer is decoded, instead of spending
	// the whole cycle budget on the post-transfer SWAP spin. Keeps traced
	// runs compact without changing what was transmitted.
	StopOnFinish bool
}

// Spec declares the two-regime system (no channels!) a run boots: the
// sender and the receiver, which owns the clock it decodes with.
func Spec(cfg Config) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", FixedSlice: cfg.FixedSlice,
		Regimes: []witness.RegimeSpec{
			{Name: "sender", Source: senderSrc(covert.Bitstring(cfg.Seed, cfg.NBits), cfg.Busy), Size: 0x400},
			{Name: "receiver", Source: receiverSrc(cfg.NBits, cfg.Threshold), Size: 0x400,
				Devices: []witness.DeviceSpec{{Kind: "clock", Name: "clk", Param: 1}}},
		}}
}

// RunConfig builds the system Spec declares, runs it, and decodes the
// receiver's memory. Sender is regime 0, receiver regime 1.
func RunConfig(cfg Config) (*Result, *kernel.Adapter, error) {
	bits := covert.Bitstring(cfg.Seed, cfg.NBits)
	sys, err := verifysys.FromSpec(Spec(cfg))
	if err != nil {
		return nil, nil, err
	}
	cycles := cfg.NBits*(cfg.Busy*2+64) + 4000
	if cfg.FixedSlice > 0 {
		cycles = cfg.NBits*cfg.FixedSlice*4 + 8000
	}
	k := sys.K
	if cfg.Tracer != nil {
		sys.SetTracer(cfg.Tracer)
	}
	if cfg.StopOnFinish {
		for spent := 0; spent < cycles; spent += 256 {
			k.Run(256)
			if flag, _ := k.RegimeWord("receiver", 0x100); flag == 1 {
				break
			}
		}
	} else {
		k.Run(cycles)
	}
	if k.Dead() {
		return nil, nil, fmt.Errorf("timingchan: kernel died: %v", k.Cause)
	}
	res := &Result{Sent: bits}
	if flag, _ := k.RegimeWord("receiver", 0x100); flag == 1 {
		res.Finished = true
	}
	for i := 0; i < cfg.NBits; i++ {
		v, _ := k.RegimeWord("receiver", machine.Word(0x200+i))
		res.Decoded = append(res.Decoded, int(v))
	}
	res.Covert = covert.Measure(bits, res.Decoded, int(k.Machine().Cycles()))
	return res, sys, nil
}

// Run is RunConfig under round-robin scheduling (the open channel).
func Run(nbits int, seed uint64, busy, threshold int) (*Result, *kernel.Adapter, error) {
	return RunConfig(Config{NBits: nbits, Seed: seed, Busy: busy, Threshold: threshold})
}

// RunFixed is Run with the kernel's fixed-slice scheduling enabled: every
// rotation takes the same wall-clock time regardless of the sender's
// behaviour, so the receiver's deltas carry (nearly) nothing.
func RunFixed(nbits int, seed uint64, busy, threshold, slice int) (*Result, *kernel.Adapter, error) {
	return RunConfig(Config{NBits: nbits, Seed: seed, Busy: busy, Threshold: threshold, FixedSlice: slice})
}
