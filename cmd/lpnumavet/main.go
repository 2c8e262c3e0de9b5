// Command lpnumavet runs the repository's custom static analyzers
// (internal/analyzers): genbump, mapiter, noalloc, wallclock and
// wrapsentinel. From anywhere inside the module:
//
//	lpnumavet ./...
//
// loads and type-checks every module package from source (no build
// cache, no network) with the same analysis.Loader the analyzers'
// fixture tests use, and prints findings as file:line:col: message.
// Test files are not analyzed: the invariants apply to production
// code, and test files measure wall time and range over maps
// legitimately.
//
// Exit status is 1 if any findings were reported, 0 otherwise.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analyzers"
)

func main() {
	os.Exit(analyze(os.Args[1:]))
}

// analyze loads the whole module from source and analyzes every
// package. Patterns other than ./... are taken as import-path
// prefixes to keep ("./internal/vm" or "repro/internal/vm").
func analyze(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatalf("%v", err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		fatalf("%v", err)
	}
	keep := func(path string) bool {
		if len(patterns) == 0 {
			return true
		}
		for _, p := range patterns {
			switch {
			case p == "./...":
				return true
			case strings.HasPrefix(p, "./"):
				p = loader.ModulePath + "/" + strings.TrimPrefix(p, "./")
			}
			if rest, ok := strings.CutSuffix(p, "/..."); ok {
				if path == rest || strings.HasPrefix(path, rest+"/") {
					return true
				}
			} else if path == p {
				return true
			}
		}
		return false
	}

	var all []analysis.Finding
	for _, path := range paths {
		if !keep(path) {
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			fatalf("%v", err)
		}
		findings, err := analysis.Run(pkg, analyzers.All())
		if err != nil {
			fatalf("%v", err)
		}
		all = append(all, findings...)
	}
	analysis.SortFindings(all)
	for _, f := range all {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpnumavet: "+format+"\n", args...)
	os.Exit(1)
}
