// Command hdlint runs the repository-invariant static analyzers of
// internal/lint over the whole module and exits non-zero on any finding.
// It is the machine-enforced half of the determinism and durability
// contracts: no wall-clock or global randomness in the deterministic
// packages, no raw file writes outside internal/atomicio, a consistent
// chaos-exercised fault-point registry, balanced PhaseStart/PhaseEnd
// hook pairs, and (deadexport) no internal package, exported identifier
// or exported method without a non-test caller.
//
//	hdlint                 # lint the module rooted at the cwd
//	hdlint -C path/to/mod  # lint another module root
//	hdlint -list           # show the analyzers and what they guard
//	hdlint -checks nondeterminism,atomicwrite
//
// Suppress a finding in code with a justified escape hatch on the flagged
// line or the line above:
//
//	//hdlint:allow <check> <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hdpower/internal/lint"
)

func main() {
	root := flag.String("C", ".", "module root to lint (directory containing go.mod)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	checks := flag.String("checks", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *checks != "" {
		want := make(map[string]bool)
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for c := range want {
			fmt.Fprintf(os.Stderr, "hdlint: unknown check %q\n", c)
			os.Exit(2)
		}
		analyzers = sel
	}

	m, err := lint.Load(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdlint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(m, analyzers, lint.DefaultConfig())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hdlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
