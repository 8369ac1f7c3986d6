// Command sepflow runs the machine-level static information-flow analyzer
// (package staticflow) over assembled SM11 programs and over the kernel's
// context-switch sequence.
//
// With file arguments it analyzes each program under a single-colour
// partition spec (plus any -peers reachable over channels) and exits 1 if
// any program is rejected:
//
//	sepflow -colour red -peers black programs/chanpair.s
//
// With no arguments (or -swap) it reproduces the paper's §4 demonstration:
// the kernel's concrete SWAP sequence — manifestly secure, and proved
// separable by `sepverify` — is REJECTED, while the abstract specification
// (only the scheduling variable changes) is CERTIFIED. Add -dynamic to run
// the randomized Proof of Separability on the standard verification system
// right next to it, printing the two verdicts side by side.
//
// Add -triage to classify each residual static flow against dynamic
// evidence: flows matching a captured counterexample in the -witness-dir
// store are CONFIRMED, flows dismissed by a passing -dynamic check are
// SPURIOUS, the rest stay UNDECIDED:
//
//	sepverify -target leak-RegisterLeak -seed 99 -witness-dir ws
//	sepflow -swap -dynamic -triage -witness-dir ws/leak-RegisterLeak
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/separability"
	"repro/internal/staticflow"
	"repro/internal/staticflow/triage"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("sepflow", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	colour := fs.String("colour", "red", "entry colour for analyzed programs")
	peersFlag := fs.String("peers", "", "comma-separated peer colours reachable over channels")
	uncut := fs.Bool("uncut", false, "channels are uncut: RECV imports the peers' colours")
	part := fs.Uint("part", 0x1000, "partition size in words")
	swap := fs.Bool("swap", false, "analyze the kernel SWAP sequence (the default with no files)")
	dynamic := fs.Bool("dynamic", false, "also run the randomized Proof of Separability (with -swap)")
	triageFlag := fs.Bool("triage", false,
		"classify each residual SWAP flow against dynamic evidence (with -swap)")
	witnessDir := fs.String("witness-dir", "",
		"witness store to triage against (see sepverify -witness-dir)")
	quiet := fs.Bool("q", false, "print one-line summaries instead of full reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var peers []staticflow.Colour
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, staticflow.Colour(p))
		}
	}

	if fs.NArg() == 0 || *swap {
		return runSwap(out, *dynamic, *triageFlag, *quiet, *witnessDir)
	}

	exit := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepflow:", err)
			return 2
		}
		img, err := asm.Assemble(kernel.Prelude + string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepflow:", err)
			return 2
		}
		spec := staticflow.ProgramSpec(filepath.Base(path),
			staticflow.Colour(*colour), peers, staticflow.Word(*part))
		spec.Uncut = *uncut
		rep, err := staticflow.Analyze(img, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepflow:", err)
			return 2
		}
		if *quiet {
			fmt.Fprintln(out, rep.Summary())
		} else {
			fmt.Fprint(out, rep.String())
		}
		if !rep.Certified() {
			exit = 1
		}
	}
	return exit
}

// runSwap prints the §4 demonstration. The rejection here is the expected
// outcome, so this mode exits 0 unless something breaks outright.
func runSwap(out io.Writer, dynamic, triageFlag, quiet bool, witnessDir string) int {
	colours := []staticflow.Colour{"red", "black"}
	conc, err := staticflow.AnalyzeKernelSwap(colours, 0, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepflow:", err)
		return 2
	}
	abs, err := staticflow.AnalyzeKernelSwapAbstract(colours, 0, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepflow:", err)
		return 2
	}
	if quiet {
		fmt.Fprintln(out, conc.Summary())
		fmt.Fprintln(out, abs.Summary())
	} else {
		fmt.Fprint(out, conc.String())
		fmt.Fprint(out, abs.String())
	}

	cleanPass := false
	cleanNote := ""
	dynVerdict := "see `sepverify` (run with -dynamic to check here)"
	if dynamic {
		sys, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepflow:", err)
			return 2
		}
		res := separability.CheckRandomized(sys, separability.Options{
			Trials: 10, StepsPerTrial: 100, Seed: 99, CheckScheduling: true,
		})
		if res.Passed() {
			dynVerdict = "PROVED separable (" + res.Summary() + ")"
			cleanPass = true
			cleanNote = "proof of separability passed (10 trials, seed 99)"
		} else {
			dynVerdict = "FAILED (" + res.Summary() + ")"
			fmt.Fprintln(out, "sepflow: the honest kernel failed separability — investigate")
		}
	}

	if triageFlag {
		var ws []*witness.Witness
		if witnessDir != "" {
			ws, err = witness.Load(witnessDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sepflow:", err)
				return 2
			}
		}
		findings := triage.Classify(conc, triage.Options{
			Witnesses: ws, CleanPass: cleanPass, CleanNote: cleanNote,
		})
		fmt.Fprintln(out)
		fmt.Fprint(out, triage.Table(findings))
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "verdict table (syntactic certification vs proof of separability):")
	fmt.Fprintf(out, "  %-28s %-11s %s\n", "subject", "static IFA", "separability")
	fmt.Fprintf(out, "  %-28s %-11s %s\n", "kernel SWAP (concrete)", conc.Verdict(), dynVerdict)
	fmt.Fprintf(out, "  %-28s %-11s %s\n", "kernel SWAP (abstract spec)", abs.Verdict(),
		"(specification only)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "The concrete switch sequence is manifestly secure yet syntactically")
	fmt.Fprintln(out, "uncertifiable; the abstract specification certifies. This is the")
	fmt.Fprintln(out, "paper's case for proving separation semantically.")
	return 0
}
