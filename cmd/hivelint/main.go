// hivelint runs the repo's invariant analyzers (reservation-balance,
// snapshot-pinning, no-alias-escape, close-and-cancel, conf-knob-registry,
// no-row-boxing, operator-node) over the whole module and exits non-zero on any finding.
// Wired into `make lint` / `make check`.
//
// Usage: hivelint [-list] [module-root]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	w, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hivelint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(w, lint.Analyzers())
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hivelint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
