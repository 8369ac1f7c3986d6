// Package distmachine realizes the paper's §3 equivalence at machine
// level, in its purest form: the SAME assembled node programs run either
//
//   - physically distributed — one SM11 machine per node, joined by real
//     Link devices over external wires ("independent processors connected
//     by external communications lines"), with no kernel anywhere; or
//   - kernel-hosted — one SM11 machine, one SUE-Go kernel, each node a
//     regime owning the very same Link devices, mapped into its address
//     space like any other memory.
//
// Because the SUE design banishes DMA and treats device registers as
// ordinary protected memory, the kernel needs no channel system calls for
// this: communication is entirely device-register I/O, identical in both
// deployments down to the instruction sequence. The only trusted function
// the kernel performs is separation; the links are the explicit channels.
package distmachine

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// Node declares one node of the distributed design.
type Node struct {
	Name   string
	Source string // SM11 assembly; DEV0 is the node's console printer,
	// DEV1.. are its link endpoints in Wire declaration order.
}

// Wire declares a unidirectional link from one node to another. On the
// sending node the TX endpoint appears as the next device; on the
// receiving node the RX endpoint does.
type Wire struct {
	From, To string
	Capacity int
}

// Deployment is a built system in either form.
type Deployment struct {
	// Machines holds one machine per node (physical) or a single shared
	// machine (kernel-hosted).
	Machines []*machine.Machine
	// Kernel is non-nil for the kernel-hosted form.
	Kernel *kernel.Kernel
	// Consoles maps node name to its console printer.
	Consoles map[string]*machine.Printer

	nodes []Node
}

// regimes declares each node as a regime owning, in order, its console
// printer and its link endpoints in Wire order. Both deployments build
// their devices from it, so device ordinals match exactly.
func regimes(nodes []Node, wires []Wire) []witness.RegimeSpec {
	rs := make([]witness.RegimeSpec, len(nodes))
	index := map[string]int{}
	for i, n := range nodes {
		index[n.Name] = i
		rs[i] = witness.RegimeSpec{Name: n.Name, Source: n.Source, Size: 0x1000,
			Devices: []witness.DeviceSpec{{Kind: "printer", Name: "console." + n.Name, Param: 1}}}
	}
	for i, w := range wires {
		capacity := w.Capacity
		if capacity <= 0 {
			capacity = 16
		}
		name := fmt.Sprintf("wire%d.%s-%s", i, w.From, w.To)
		for _, end := range [2][2]string{{w.From, "link-tx"}, {w.To, "link-rx"}} {
			if j, ok := index[end[0]]; ok {
				rs[j].Devices = append(rs[j].Devices, witness.DeviceSpec{Kind: end[1], Name: name, Param: capacity})
			}
		}
	}
	return rs
}

// consoles maps each node to its console printer, its first device.
func consoles(nodes []Node, devs [][]machine.Device) map[string]*machine.Printer {
	out := map[string]*machine.Printer{}
	for i, n := range nodes {
		out[n.Name] = devs[i][0].(*machine.Printer)
	}
	return out
}

// BuildPhysical boots one machine per node, programs at physical 0x400,
// devices attached in the canonical order.
func BuildPhysical(nodes []Node, wires []Wire) (*Deployment, error) {
	devs, err := verifysys.Devices(regimes(nodes, wires))
	if err != nil {
		return nil, err
	}
	d := &Deployment{Consoles: consoles(nodes, devs), nodes: nodes}
	for i, n := range nodes {
		im, err := asm.Assemble(kernel.Prelude + n.Source)
		if err != nil {
			return nil, fmt.Errorf("distmachine: node %q: %w", n.Name, err)
		}
		m := machine.New(0x2000)
		for _, dev := range devs[i] {
			m.Attach(dev)
		}
		// With no kernel, run the node program in kernel mode at its
		// natural addresses; device registers are reached through their
		// physical I/O-page addresses, so the program uses a tiny shim:
		// we relocate by mapping... simplest faithful approach: run in
		// USER mode with an identity-style segment map, exactly the
		// environment the kernel would provide.
		if err := m.LoadImage(0x400+im.Org, im.Words); err != nil {
			return nil, err
		}
		// Map segment 0 to the program area (like a 4K-word partition)...
		m.SetSeg(0, 0x400, machine.MakeSegCtl(machine.SegmentWords, machine.AccessRW))
		// ...and each device at the same virtual segments the kernel uses.
		for j, dev := range devs[i] {
			h, _ := m.DeviceHandle(dev)
			m.SetSeg(kernel.DeviceSegBase+j, h.Base,
				machine.MakeSegCtl(dev.Size(), machine.AccessRW))
		}
		// Traps land on HALT stubs: a pure-device node program should
		// never trap; TRAP #SWAP (a politeness no-op here) is emulated by
		// a handler that simply returns.
		m.SetVector(machine.VecTRAP, 0x200, machine.WithPriority(0, 7))
		m.WritePhys(0x200, machine.Enc2(machine.OpRTI, 0, 0))
		m.SetVector(machine.VecIllegal, 0x210, machine.WithPriority(0, 7))
		m.WritePhys(0x210, machine.Enc2(machine.OpHALT, 0, 0))
		m.SetVector(machine.VecMMU, 0x210, machine.WithPriority(0, 7))
		m.SetPSW(machine.PSWUser)
		m.SetAltSP(0x3F0) // kernel stack for the trap shim
		m.SetReg(machine.RegSP, machine.Word(0x1000))
		m.SetPC(im.Org)
		d.Machines = append(d.Machines, m)
	}
	return d, nil
}

// BuildShared boots all nodes as regimes of one SUE-Go kernel on a single
// machine, each owning its console and link endpoints.
func BuildShared(nodes []Node, wires []Wire) (*Deployment, error) {
	return BuildSharedSliced(nodes, wires, 0)
}

// BuildSharedSliced is BuildShared with fixed-slice scheduling (0 keeps
// the SUE's run-until-SWAP discipline).
func BuildSharedSliced(nodes []Node, wires []Wire, slice int) (*Deployment, error) {
	sys, err := verifysys.FromSpec(witness.SystemSpec{Kind: "verifysys", RAM: 0xC000,
		FixedSlice: slice, Regimes: regimes(nodes, wires)})
	if err != nil {
		return nil, err
	}
	var devs [][]machine.Device
	for _, r := range sys.K.Config().Regimes {
		devs = append(devs, r.Devices)
	}
	return &Deployment{Machines: []*machine.Machine{sys.K.Machine()}, Kernel: sys.K,
		Consoles: consoles(nodes, devs), nodes: nodes}, nil
}

// Run advances the deployment n steps: physically, all machines step in
// lock-step (truly parallel hardware); kernel-hosted, the one machine
// steps under its kernel.
func (d *Deployment) Run(n int) {
	if d.Kernel != nil {
		d.Kernel.Run(n)
		return
	}
	for i := 0; i < n; i++ {
		for _, m := range d.Machines {
			m.Step()
		}
	}
}

// ConsoleOutput returns a node's console print-out.
func (d *Deployment) ConsoleOutput(node string) string {
	if p, ok := d.Consoles[node]; ok {
		return p.OutputString()
	}
	return ""
}
