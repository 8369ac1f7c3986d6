package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/verifysys"
)

// TestChannelEnds checks the end table every registered deployment's
// kernel builds from its configuration. An uncut channel's receiver
// drains the buffer its sender fills; a cut channel's receiver drains a
// buffer of its own, the paper's X2. In a cut system X2 is a buffer
// nothing writes: after a randomized start and a 1,000-step walk with
// inputs, its head, tail, count and every ring slot are still 0, while
// the senders' ends have carried traffic.
func TestChannelEnds(t *testing.T) {
	for _, d := range verifysys.DeploymentSpecs() {
		t.Run(d.Name, func(t *testing.T) {
			a, err := verifysys.FromSpec(d.Spec)
			if err != nil {
				t.Fatal(err)
			}
			k := a.K
			nch := len(k.Config().Channels)
			if nch == 0 {
				t.Fatal("deployment has no channels")
			}
			for ci := 0; ci < nch; ci++ {
				send, recv := k.ChanEnds(ci)
				if d.Spec.Cut == (send == recv) {
					t.Fatalf("cut=%v: channel %d send end %+v, receive end %+v", d.Spec.Cut, ci, send, recv)
				}
			}
			if !d.Spec.Cut {
				return
			}
			rng := rand.New(rand.NewSource(1))
			a.Randomize(rng)
			for s := 0; s < 1000; s++ {
				if s%2 == 0 {
					a.ApplyInput(a.RandomInput(rng))
				} else {
					a.ApplyInput(nil)
				}
				a.Step()
			}
			sends := uint64(0)
			for _, n := range k.Stats().SendPerRegime {
				sends += n
			}
			if sends == 0 {
				t.Fatal("no regime sent: the walk left the channels unexercised")
			}
			m := k.Machine()
			for ci := 0; ci < nch; ci++ {
				_, x2 := k.ChanEnds(ci)
				for j := kernel.Word(0); j < 3; j++ {
					if v := m.ReadPhys(x2.Hdr + j); v != 0 {
						t.Errorf("channel %d: receive-end header word %d = %#x, want 0", ci, j, v)
					}
				}
				for j := kernel.Word(0); j < x2.Cap; j++ {
					if v := m.ReadPhys(x2.Buf + j); v != 0 {
						t.Errorf("channel %d: receive-end slot %d = %#x, want 0", ci, j, v)
					}
				}
			}
		})
	}
}
