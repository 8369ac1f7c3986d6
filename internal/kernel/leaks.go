package kernel

// Leaks enumerates deliberate separation violations that can be compiled
// into a SUE-Go instance. They exist to validate the verifier (experiment
// E8): a Proof-of-Separability check must pass the honest kernel and catch
// every one of these, while ordinary functional tests notice none of them.
//
// Each leak is the executable form of a classic kernel bug family:
type Leaks struct {
	// RegisterLeak skips restoring R5 on a context switch, so the
	// outgoing regime's R5 value is visible to the incoming regime —
	// the exact hazard Rushby's SWAP discussion is about.
	RegisterLeak bool

	// PartitionOverlap maps one word of the *next* regime's partition
	// into every regime's address space (segment 12), a botched MMU
	// configuration.
	PartitionOverlap bool

	// SharedScratch maps a kernel scratch word into every regime
	// (segment 13) read-write: a storage channel through kernel data.
	SharedScratch bool

	// InterruptMisroute credits device interrupts to the wrong regime's
	// pending word, so one regime's I/O modulates another's control flow —
	// the interrupt-handling hazard that IFA cannot even express.
	InterruptMisroute bool

	// ChannelAlias makes every channel share channel 0's buffer: two
	// supposedly independent channels are one object, the hazard the
	// channel-cutting argument is designed to expose.
	ChannelAlias bool

	// SchedulerSnoop makes the round-robin decision depend on a word of
	// regime 0's memory, violating condition 6 (NEXTOP must be a function
	// of the active regime's own abstract state).
	SchedulerSnoop bool

	// OutputCopy copies one word of the outgoing regime's partition into
	// the incoming regime's partition on every context switch: a blatant
	// direct flow, the easy case every method should catch.
	OutputCopy bool
}

// AllLeaks returns one Leaks value per individual leak, for fault-injection
// sweeps.
func AllLeaks() map[string]Leaks {
	return map[string]Leaks{
		"RegisterLeak":      {RegisterLeak: true},
		"PartitionOverlap":  {PartitionOverlap: true},
		"SharedScratch":     {SharedScratch: true},
		"InterruptMisroute": {InterruptMisroute: true},
		"ChannelAlias":      {ChannelAlias: true},
		"SchedulerSnoop":    {SchedulerSnoop: true},
		"OutputCopy":        {OutputCopy: true},
	}
}
