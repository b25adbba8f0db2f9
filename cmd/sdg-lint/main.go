// Command sdg-lint runs the repository's static-invariant analyzers
// (internal/analysis: lockorder, borrowcopy, clockassert) over
// the given packages and exits non-zero if any finding survives
// //sdg:ignore suppression. CI runs it as a blocking gate between the
// format check and go vet.
//
// Usage:
//
//	sdg-lint [packages...]   # default ./...
//	sdg-lint -list           # describe the analyzers
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/anz"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdg-lint [-list] [packages...]\n\nruns the repo's static-invariant analyzers; see DESIGN.md \"Static invariants\".\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := anz.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := anz.NewLoader(root, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		fatal(err)
	}
	diags, err := anz.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sdg-lint: %d finding(s); fix or //sdg:ignore <analyzer> -- <justification>\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdg-lint:", err)
	os.Exit(2)
}
