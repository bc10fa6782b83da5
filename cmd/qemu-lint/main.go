// Command qemu-lint runs the repository's engine-invariant analyzer
// suite (internal/lint) over the named packages — a multichecker in
// the style of golang.org/x/tools/go/analysis/multichecker, built on
// the repo's dependency-free analysis framework.
//
// Usage:
//
//	go run ./cmd/qemu-lint ./...
//	go run ./cmd/qemu-lint -json ./... > findings.json
//
// Exit status is 0 when the tree is clean, 1 when any analyzer
// reported a finding, 2 on load/usage errors. The -json mode emits a
// machine-readable findings array (file/line/col/analyzer/message) so
// tooling can diff lint trajectories between commits; a clean tree emits
// [].
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qemu-lint [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qemu-lint:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qemu-lint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "qemu-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "qemu-lint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
