package repro

// Fixture tests: the sample programs in programs/ and specifications in
// specs/ that the README and tool help point users at must keep
// assembling, parsing and behaving.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/ifa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

func TestSampleProgramsAssemble(t *testing.T) {
	entries, err := os.ReadDir("programs")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".s") {
			continue
		}
		n++
		src, err := os.ReadFile(filepath.Join("programs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := asm.Assemble(kernel.Prelude + string(src)); err != nil {
			t.Errorf("programs/%s does not assemble: %v", e.Name(), err)
		}
	}
	if n < 3 {
		t.Errorf("only %d sample programs found", n)
	}
}

func TestSampleSpecsParse(t *testing.T) {
	entries, err := os.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]bool{
		"swap.ifa":          false, // rejected, per the paper
		"guard.ifa":         false, // HIGH->LOW needs the officer
		"censor_strict.ifa": true,  // the provably flow-free censor
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ifa") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("specs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ifa.Parse(string(src))
		if err != nil {
			t.Errorf("specs/%s does not parse: %v", e.Name(), err)
			continue
		}
		lattice := ifa.Lattice(ifa.TwoPoint())
		if e.Name() == "swap.ifa" {
			lattice = ifa.Isolation("RED", "BLACK")
		}
		rep := ifa.Certify(prog, lattice)
		want, known := verdicts[e.Name()]
		if !known {
			t.Errorf("specs/%s has no expected verdict in this test", e.Name())
			continue
		}
		if rep.Certified() != want {
			t.Errorf("specs/%s certified=%v, want %v (%s)",
				e.Name(), rep.Certified(), want, rep.Summary())
		}
	}
}

func TestSampleProgramsRun(t *testing.T) {
	read := func(name string) string {
		src, err := os.ReadFile(filepath.Join("programs", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}

	t.Run("counter", func(t *testing.T) {
		k := boot(t, witness.SystemSpec{Kind: "verifysys",
			Regimes: regimes("a", read("counter.s"), "b", read("counter.s"))}).K
		k.Run(2000)
		for _, name := range []string{"a", "b"} {
			if v, _ := k.RegimeWord(name, 0x20); v < 10 {
				t.Errorf("%s counted only %d", name, v)
			}
		}
	})

	t.Run("echo", func(t *testing.T) {
		k := boot(t, witness.SystemSpec{Kind: "verifysys", Regimes: []witness.RegimeSpec{
			{Name: "io", Source: read("echo.s"), Size: 0x200,
				Devices: []witness.DeviceSpec{{Kind: "tty", Name: "tty0", Param: 2}}},
			{Name: "bg", Source: read("counter.s"), Size: 0x200},
		}}).K
		tty := k.Machine().Devices()[0].(*machine.TTY)
		tty.InjectString("hi")
		k.Run(20000)
		if got := tty.OutputString(); got != "hi" {
			t.Errorf("echo = %q", got)
		}
	})

	t.Run("chanpair", func(t *testing.T) {
		k := boot(t, witness.SystemSpec{Kind: "verifysys",
			Regimes: regimes("r0", read("chanpair.s"), "r1", read("chanpair.s")),
			Channels: []witness.ChannelSpec{
				{From: "r0", To: "r1", Capacity: 16},
				{From: "r1", To: "r0", Capacity: 16},
			}}).K
		k.Run(5000)
		for _, name := range []string{"r0", "r1"} {
			if v, _ := k.RegimeWord(name, 0x20); v == 0 {
				t.Errorf("%s never saw its peer's counter", name)
			}
		}
	})
}

// boot builds and boots the system spec declares, failing tb on error.
func boot(tb testing.TB, spec witness.SystemSpec) *kernel.Adapter {
	tb.Helper()
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// regimes declares one 0x200-word regime per name/source pair.
func regimes(nameSrc ...string) []witness.RegimeSpec {
	var rs []witness.RegimeSpec
	for i := 0; i+1 < len(nameSrc); i += 2 {
		rs = append(rs, witness.RegimeSpec{Name: nameSrc[i], Source: nameSrc[i+1], Size: 0x200})
	}
	return rs
}
