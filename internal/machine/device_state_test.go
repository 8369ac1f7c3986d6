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
