package blockstore_test

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/separability"
)

func run(t *testing.T, alice, bob []machine.Word) *blockstore.System {
	t.Helper()
	sys, err := blockstore.Build(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	sys.K.RunUntilIdle(200000)
	if sys.K.Dead() {
		t.Fatalf("kernel died: %v", sys.K.Cause)
	}
	return sys
}

func TestPutGetRoundTrip(t *testing.T) {
	sys := run(t,
		[]machine.Word{blockstore.Put(3, 0x5A), blockstore.Get(3)},
		[]machine.Word{blockstore.Put(20, 0x7B), blockstore.Get(20)})
	a, err := sys.Replies("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 0x5A || a[1] != 0x5A {
		t.Errorf("alice replies = %#v, want [0x5A 0x5A]", a)
	}
	b, _ := sys.Replies("bob", 2)
	if b[0] != 0x7B || b[1] != 0x7B {
		t.Errorf("bob replies = %#v, want [0x7B 0x7B]", b)
	}
}

func TestSlotOwnershipEnforcedByComponent(t *testing.T) {
	// Alice tries bob's slot 20; bob tries alice's slot 3. Both must be
	// denied by the SERVER (the kernel knows nothing of slots).
	sys := run(t,
		[]machine.Word{blockstore.Put(20, 0x11), blockstore.Get(20)},
		[]machine.Word{blockstore.Get(3), blockstore.Put(3, 0x22)})
	a, _ := sys.Replies("alice", 2)
	b, _ := sys.Replies("bob", 2)
	for i, v := range a {
		if v != blockstore.ErrWord {
			t.Errorf("alice cross-tenant request %d returned %#x, want denial", i, v)
		}
	}
	for i, v := range b {
		if v != blockstore.ErrWord {
			t.Errorf("bob cross-tenant request %d returned %#x, want denial", i, v)
		}
	}
}

func TestTenantsDoNotInterfere(t *testing.T) {
	// Both write "their" slot 0-relative value; each reads back its own.
	sys := run(t,
		[]machine.Word{blockstore.Put(0, 0xAA), blockstore.Get(0)},
		[]machine.Word{blockstore.Put(16, 0xBB), blockstore.Get(16)})
	a, _ := sys.Replies("alice", 2)
	b, _ := sys.Replies("bob", 2)
	if a[1] != 0xAA {
		t.Errorf("alice read back %#x", a[1])
	}
	if b[1] != 0xBB {
		t.Errorf("bob read back %#x", b[1])
	}
}

func TestClientsFinish(t *testing.T) {
	sys := run(t,
		[]machine.Word{blockstore.Get(0)},
		[]machine.Word{blockstore.Get(16)})
	for _, c := range []string{"alice", "bob"} {
		i := sys.K.RegimeIndex(c)
		if st := sys.K.RegimeStateOf(i); st != kernel.StateDead {
			t.Errorf("%s did not halt cleanly (state %d, fault %+v)",
				c, st, sys.K.RegimeFault(i))
		}
	}
}

// The block-store system itself submits to Proof of Separability: with its
// four channels cut, the three regimes must verify isolated. (Partitions
// here are 1K words, so this is the largest configuration the randomized
// checker exercises in the suite.)
func TestBlockstoreSeparabilityWhenCut(t *testing.T) {
	cut, err := blockstore.BuildCut(
		[]machine.Word{blockstore.Put(1, 0x11), blockstore.Get(1)},
		[]machine.Word{blockstore.Put(17, 0x22), blockstore.Get(17)})
	if err != nil {
		t.Fatal(err)
	}
	res := separability.CheckRandomized(cut.Adapter, separability.Options{
		Trials: 4, StepsPerTrial: 50, Seed: 21,
	})
	if !res.Passed() {
		for i, v := range res.Violations {
			if i > 3 {
				break
			}
			t.Logf("violation: %s", v)
		}
		t.Fatalf("cut blockstore failed separability: %s", res.Summary())
	}
}
