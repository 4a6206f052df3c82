// Command upsimvet runs the repository's Go static-analysis suite
// (internal/gostatic) over the named packages: the code-level counterpart of
// `upsim lint`, which analyses models. It enforces the kernel and
// observability invariants — allocation-free //upsim:hotpath functions,
// StartSpan/End pairing, sync.Pool Get/Put balance, explicit json tags
// on API payload structs, and no exported internal/* name that only tests
// use (judged only when the load holds the module root).
//
// Usage:
//
//	upsimvet [-json] [-rules] [packages]
//
// Packages default to ./... — directories, or directory/... patterns, like
// the go tool. The exit status is 0 when the tree is clean, 1 when any
// diagnostic was emitted, 2 on a driver failure (unparseable file, bad
// pattern). CI runs `upsimvet ./...` as a required step.
package main

import (
	"flag"
	"fmt"
	"os"

	"upsim/internal/gostatic"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("upsimvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	listRules := fs.Bool("rules", false, "list the registered rules and exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: upsimvet [-json] [-rules] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reg := gostatic.Default()
	if *listRules {
		for _, rule := range reg.Rules() {
			fmt.Printf("%-12s %-8s %s\n", rule.ID(), rule.Severity(), rule.Doc())
		}
		return 0
	}
	pkgs, err := gostatic.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upsimvet:", err)
		return 2
	}
	rep, err := reg.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upsimvet:", err)
		return 2
	}
	if *jsonOut {
		if err := rep.EncodeJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "upsimvet:", err)
			return 2
		}
	} else if err := rep.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "upsimvet:", err)
		return 2
	}
	if !rep.Clean() {
		return 1
	}
	return 0
}
