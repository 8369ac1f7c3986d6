package machine_test

import (
	"slices"
	"testing"

	"repro/internal/machine"
)

// deviceKind builds one device type and drives it into a state whose
// output history, for the devices that have one, grows with n.
type deviceKind struct {
	name  string
	fresh func() machine.Device
	drive func(d machine.Device, n int)
}

var deviceKinds = []deviceKind{
	{"tty", func() machine.Device { return machine.NewTTY("tty", 1) },
		func(d machine.Device, n int) {
			tty := d.(*machine.TTY)
			tty.InjectString("queued")
			tty.WriteReg(0, 0x40)
			for i := 0; i < n; i++ {
				tty.WriteReg(3, machine.Word('a'+i))
				tty.Tick()
			}
		}},
	{"printer", func() machine.Device { return machine.NewPrinter("lp", 1) },
		func(d machine.Device, n int) {
			d.WriteReg(0, 0x40)
			for i := 0; i < n; i++ {
				d.WriteReg(1, machine.Word('A'+i))
				d.Tick()
			}
		}},
	{"clock", func() machine.Device { return machine.NewClock("clk", 3) },
		func(d machine.Device, n int) {
			d.WriteReg(0, 0x40)
			for i := 0; i < n; i++ {
				d.Tick()
			}
		}},
	{"linktx", func() machine.Device { tx, _ := machine.NewLink("ln", 4); return tx },
		func(d machine.Device, n int) {
			d.WriteReg(0, 0x40)
			for i := 0; i < n; i++ {
				d.Tick()
			}
		}},
	{"linkrx", func() machine.Device { _, rx := machine.NewLink("ln", 4); return rx },
		func(d machine.Device, n int) {
			d.WriteReg(0, 0x40)
			for i := 0; i < n%2; i++ {
				d.Ack()
			}
		}},
}

// Devices reuse their own buffers across AppendState and RestoreState, so
// neither may share storage with the caller's vector: AppendState leaves
// dst's prefix alone, RestoreState copies, and restoring a shorter output
// history over a longer one (or the reverse) leaves the device exactly as
// a fresh device restored from the same vector.
func TestDeviceStateNoAlias(t *testing.T) {
	for _, k := range deviceKinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.fresh()
			k.drive(d, 5)
			want := d.AppendState(nil)

			prefix := []machine.Word{0x11, 0x22, 0x33}
			dst := append(make([]machine.Word, 0, 64), prefix...)
			got := d.AppendState(dst)
			if !slices.Equal(dst, prefix) || !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendState changed the prefix of dst: %v", got[:len(prefix)])
			}
			if !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendState(dst) appended %v, AppendState(nil) is %v", got[len(prefix):], want)
			}

			r := k.fresh()
			ws := slices.Clone(want)
			r.RestoreState(ws)
			for i := range ws {
				ws[i] ^= 0x5a5a
			}
			if st := r.AppendState(nil); !slices.Equal(st, want) {
				t.Fatalf("mutating the restored vector changed the device: %v, want %v", st, want)
			}

			long, short := k.fresh(), k.fresh()
			k.drive(long, 9)
			k.drive(short, 2)
			for _, pair := range [][2][]machine.Word{
				{long.AppendState(nil), short.AppendState(nil)},
				{short.AppendState(nil), long.AppendState(nil)},
			} {
				first, second := pair[0], pair[1]
				secondCopy := slices.Clone(second)
				dev, ref := k.fresh(), k.fresh()
				dev.RestoreState(first)
				dev.RestoreState(second)
				ref.RestoreState(second)
				if a, b := dev.AppendState(nil), ref.AppendState(nil); !slices.Equal(a, b) {
					t.Fatalf("restored over a %d-word state: %v, fresh device %v", len(first), a, b)
				}
				// Both go on from there alike, and neither writes into the
				// vector it was restored from.
				k.drive(dev, 3)
				k.drive(ref, 3)
				if a, b := dev.AppendState(nil), ref.AppendState(nil); !slices.Equal(a, b) {
					t.Fatalf("after restoring over a %d-word state the device diverged: %v, fresh device %v", len(first), a, b)
				}
				if !slices.Equal(second, secondCopy) {
					t.Fatalf("driving a restored device wrote into its source vector")
				}
			}
		})
	}
}

// A replica is a power-on copy: after the original has run, its replica
// renders exactly as a freshly constructed device of the same
// configuration, and neither shares a buffer with the other. Link ends
// share their wire with the far end, so they are not replicable at all.
func TestReplicaIsPowerOn(t *testing.T) {
	configured := map[string]func() machine.Device{
		"tty":     func() machine.Device { return machine.NewTTY("tty", 3) },
		"printer": func() machine.Device { return machine.NewPrinter("lp", 2) },
		"clock":   func() machine.Device { return machine.NewClock("clk", 4) },
	}
	for _, k := range deviceKinds {
		t.Run(k.name, func(t *testing.T) {
			fresh, ok := configured[k.name]
			if !ok {
				if _, rep := k.fresh().(machine.Replicator); rep {
					t.Fatalf("%s is replicable", k.name)
				}
				return
			}
			orig := fresh()
			k.drive(orig, 5)
			origState := orig.AppendState(nil)
			rep := orig.(machine.Replicator).Replicate()
			want := fresh()
			if a, b := rep.AppendState(nil), want.AppendState(nil); !slices.Equal(a, b) {
				t.Fatalf("replica state %v, fresh device %v", a, b)
			}
			if rep.Name() != want.Name() || rep.Priority() != want.Priority() || rep.Size() != want.Size() {
				t.Fatalf("replica is %q prio %d size %d, fresh device %q prio %d size %d",
					rep.Name(), rep.Priority(), rep.Size(), want.Name(), want.Priority(), want.Size())
			}
			// Same configuration: both go on alike from power-on.
			k.drive(rep, 7)
			k.drive(want, 7)
			if a, b := rep.AppendState(nil), want.AppendState(nil); !slices.Equal(a, b) {
				t.Fatalf("driven replica %v, driven fresh device %v", a, b)
			}

			// Driving either one leaves the other as it was.
			k.drive(rep, 9)
			if st := orig.AppendState(nil); !slices.Equal(st, origState) {
				t.Fatalf("driving the replica changed the original: %v, was %v", st, origState)
			}
			repState := rep.AppendState(nil)
			k.drive(orig, 9)
			if st := rep.AppendState(nil); !slices.Equal(st, repState) {
				t.Fatalf("driving the original changed the replica: %v, was %v", st, repState)
			}
		})
	}
}
