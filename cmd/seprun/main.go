// Command seprun boots a SUE-Go separation-kernel system and runs it.
//
// With no arguments it runs a built-in two-regime demo (a sender and a
// receiver joined by one kernel channel). Given assembly files, it boots
// one regime per file, in argument order, optionally joined by channels:
//
//	seprun -steps 20000 -chan 0:1 -chan 1:0 red.s black.s
//
// Each -chan FROM:TO adds a unidirectional channel between regime indexes.
// Flags go before the files: an argument after them that looks like a
// flag is rejected.
// The kernel ABI prelude (TRAP numbers, device segment addresses) is
// prepended to every file automatically.
//
// Observability (see internal/obs):
//
//	seprun -trace out.jsonl                     # JSONL event trace
//	seprun -trace -                             # JSONL to stdout (report → stderr)
//	seprun -trace out.json -trace-format chrome # open in chrome://tracing
//	seprun -itrace 20                           # print first 20 instructions
//	seprun -metrics                             # Prometheus-text kernel counters
//
// Every run ends with a per-regime exit report: instructions executed,
// syscalls, channel traffic, final state and any fault reason. With
// -trace - the report moves to stderr, so `seprun -trace - | septrace
// covert -` pipes a clean event stream.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

type chanFlags []string

func (c *chanFlags) String() string { return strings.Join(*c, ",") }

func (c *chanFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

const demoSender = `
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	CMP #11, R2
	BEQ done
	TRAP #SWAP
	BR loop
done:
	TRAP #HALTME
`

const demoReceiver = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
	BR loop
yield:
	TRAP #SWAP
	BR loop
`

// demoSpec adds the built-in demo to spec: a sender and a receiver
// joined by one channel.
func demoSpec(spec witness.SystemSpec) witness.SystemSpec {
	spec.Regimes = []witness.RegimeSpec{
		{Name: "sender", Source: demoSender},
		{Name: "receiver", Source: demoReceiver},
	}
	spec.Channels = []witness.ChannelSpec{{From: "sender", To: "receiver", Capacity: 8}}
	return spec
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run boots and runs the system args describe and returns the exit code:
// 0 on a completed run, 1 when the run fails or the kernel dies, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	steps := fs.Int("steps", 50000, "maximum machine cycles to run")
	cut := fs.Bool("cut", false, "apply the channel-cutting transformation")
	itrace := fs.Int("itrace", 0, "print the first N executed instructions")
	slice := fs.Int("slice", 0, "fixed time slice in cycles (0 = run until SWAP)")
	tracePath := fs.String("trace", "", "write a kernel event trace to this file")
	traceFormat := fs.String("trace-format", "jsonl",
		"trace file format: jsonl (one event per line) or chrome (trace_event for chrome://tracing / Perfetto)")
	metrics := fs.Bool("metrics", false, "dump kernel activity counters in Prometheus text format after the run")
	var chans chanFlags
	fs.Var(&chans, "chan", "add a channel FROM:TO between regime indexes (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	files := fs.Args()
	for _, a := range files {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(stderr, "seprun: %s comes after the program files; flags go before the files\n", a)
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "seprun:", err)
		return 1
	}

	// With -trace - the event stream owns stdout; everything else (the
	// demo banner, the exit report, metrics) moves to stderr so the JSONL
	// can be piped straight into septrace.
	out := stdout
	if *tracePath == "-" {
		out = stderr
	}

	spec := witness.SystemSpec{Kind: "verifysys", Cut: *cut, FixedSlice: *slice}
	if len(files) == 0 {
		spec = demoSpec(spec)
		fmt.Fprintln(out, "seprun: no programs given; running the built-in sender/receiver demo")
	} else {
		for i, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			spec.Regimes = append(spec.Regimes, witness.RegimeSpec{
				Name: fmt.Sprintf("r%d", i), Source: string(src)})
		}
		for _, c := range chans {
			var from, to int
			if _, err := fmt.Sscanf(c, "%d:%d", &from, &to); err != nil {
				return fail(fmt.Errorf("bad -chan %q: %w", c, err))
			}
			if from < 0 || from >= len(files) || to < 0 || to >= len(files) {
				return fail(fmt.Errorf("-chan %q references a missing regime", c))
			}
			spec.Channels = append(spec.Channels, witness.ChannelSpec{
				From: spec.Regimes[from].Name, To: spec.Regimes[to].Name, Capacity: 16})
		}
	}
	var names []string
	for _, r := range spec.Regimes {
		names = append(names, r.Name)
	}

	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		return fail(err)
	}
	k := sys.K
	if *itrace > 0 {
		left := *itrace
		k.Machine().SetTracer(func(e machine.TraceEntry) {
			if left <= 0 {
				return
			}
			left--
			who := "kernel"
			if e.User {
				who = names[k.CurrentRegime()]
			}
			fmt.Fprintf(out, "%s  [%s]\n", e, who)
		})
	}

	// Event tracing: attach the requested sink before the run and finish
	// the file (flush / close the JSON array) after it.
	var finishTrace func() error
	if *tracePath != "" {
		w := stdout
		closeFile := func() error { return nil }
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fail(err)
			}
			w, closeFile = f, f.Close
		}
		switch *traceFormat {
		case "jsonl":
			j := obs.NewJSONL(w)
			sys.SetTracer(j)
			finishTrace = func() error {
				if err := j.Flush(); err != nil {
					return err
				}
				return closeFile()
			}
		case "chrome":
			c := obs.NewChrome(w, names)
			sys.SetTracer(c)
			finishTrace = func() error {
				if err := c.Close(); err != nil {
					return err
				}
				return closeFile()
			}
		default:
			closeFile()
			return fail(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}

	n := k.RunUntilIdle(*steps)

	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "trace written to %s (%s)\n", *tracePath, *traceFormat)
	}

	fmt.Fprintf(out, "ran %d cycles (%d machine cycles total)\n", n, k.Machine().Cycles())
	if k.Dead() {
		fmt.Fprintf(out, "KERNEL DIED: %v\n", k.Cause)
		return 1
	}
	exitReport(out, k, names)

	if *metrics {
		reg := obs.NewRegistry()
		k.FillRegistry(reg)
		fmt.Fprintln(out, "\nmetrics:")
		reg.WritePrometheus(out)
	}
	return 0
}

// exitReport prints the per-regime outcome: what each regime did (from the
// kernel's activity counters) and how it ended.
func exitReport(out io.Writer, k *kernel.Kernel, names []string) {
	st := k.Stats()
	fmt.Fprintf(out, "kernel: swaps=%d sched-decisions=%d ctx-switches=%d interrupts=%d deliveries=%d\n",
		st.Swaps, st.SchedDecisions, st.Switches, st.Interrupts, st.Deliveries)
	fmt.Fprintf(out, "%-10s %-13s %9s %9s %6s %6s  %s\n",
		"regime", "state", "instrs", "syscalls", "sends", "recvs", "exit")
	for i, name := range names {
		state := k.RegimeStateOf(i)
		stateName := map[machine.Word]string{
			kernel.StateRunnable: "runnable",
			kernel.StateDead:     "halted",
			kernel.StateWaitIRQ:  "waiting-irq",
		}[state]
		exit := "ran to step limit"
		switch state {
		case kernel.StateDead:
			exit = "halted voluntarily (TRAP #HALTME)"
			if f := k.RegimeFault(i); f.Reason != "" {
				stateName = "faulted"
				exit = fmt.Sprintf("FAULT: %s at PC %#x", f.Reason, f.PC)
			}
		case kernel.StateWaitIRQ:
			exit = "blocked in TRAP #WAITIRQ"
		}
		w, _ := k.RegimeWord(name, 0x20)
		fmt.Fprintf(out, "%-10s %-13s %9d %9d %6d %6d  %s (mem[0x20]=%#x)\n",
			name, stateName,
			st.InstrPerRegime[i], st.SyscallPerRegime[i],
			st.SendPerRegime[i], st.RecvPerRegime[i], exit, w)
	}
}
