// Command qemu-vet runs the circuit/artifact static-analysis suite
// (internal/circvet) over the named files — the IR-level counterpart of
// qemu-lint, which analyses the simulator's own source code.
//
// Usage:
//
//	go run ./cmd/qemu-vet circuit.qasm ...
//	go run ./cmd/qemu-vet -json circuit.qasm > findings.json
//	go run ./cmd/qemu-vet -resources circuit.qasm
//	go run ./cmd/qemu-vet artifact.qexe
//	go run ./cmd/qemu-vet -gen-corpus DIR
//
// Each .qasm file is parsed and run through the diagnostic passes
// (liveness, deadgate, uncompute, regioncheck); findings print as
// file:line diagnostics resolved through the parser's source map. Each
// .qexe file is decoded and run through backend.VerifyExecutable — and,
// when its basename is a sha256 fingerprint (the serving cache's layout),
// through the embedded-key check too. -resources appends the static cost
// estimate per circuit; -json emits everything machine-readably.
// -gen-corpus writes a small set of vet-clean example circuits (GHZ,
// entangle+QFT, superposed adder) to a directory and exits — CI vets the
// generated corpus and expects exit 0, pinning analyzer false-positive
// drift.
//
// Exit status is 0 when every file is clean, 1 when any finding was
// reported, 2 on usage, read or parse errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/circvet"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qft"
	"repro/internal/revlib"
)

// fileReport is one file's machine-readable result.
type fileReport struct {
	File      string             `json:"file"`
	Findings  []circvet.Finding  `json:"findings"`
	Resources *circvet.Resources `json:"resources,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings (and resources) as JSON instead of text")
	resources := flag.Bool("resources", false, "report the static resource estimate per circuit")
	genCorpus := flag.String("gen-corpus", "", "write the vet-clean example corpus to `dir` and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qemu-vet [-json] [-resources] file.qasm|file.qexe ...\n\nAnalyzers:\n")
		for _, a := range circvet.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *genCorpus != "" {
		if err := writeCorpus(*genCorpus); err != nil {
			fmt.Fprintln(os.Stderr, "qemu-vet:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var reports []fileReport
	total := 0
	for _, path := range flag.Args() {
		rep, err := vetFile(path, *resources || *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qemu-vet:", err)
			os.Exit(2)
		}
		total += len(rep.Findings)
		reports = append(reports, rep)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, "qemu-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, rep := range reports {
			for _, f := range rep.Findings {
				fmt.Println(f)
			}
			if *resources && rep.Resources != nil {
				fmt.Printf("%s: resource estimate:\n", rep.File)
				for _, line := range strings.Split(strings.TrimRight(rep.Resources.Report(), "\n"), "\n") {
					fmt.Println("  " + line)
				}
			}
		}
	}
	if total > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "qemu-vet: %d finding(s)\n", total)
		}
		os.Exit(1)
	}
}

// vetFile dispatches one path on its extension: .qasm through the
// diagnostic passes, .qexe through the artifact verifier.
func vetFile(path string, withResources bool) (fileReport, error) {
	rep := fileReport{File: path, Findings: []circvet.Finding{}}
	switch filepath.Ext(path) {
	case ".qexe":
		f, err := vetArtifact(path)
		if err != nil {
			return rep, err
		}
		rep.Findings = append(rep.Findings, f...)
		return rep, nil
	default:
		data, err := os.ReadFile(path)
		if err != nil {
			return rep, err
		}
		c, sm, err := qasm.ParseSource(bytes.NewReader(data))
		if err != nil {
			return rep, err
		}
		findings, err := circvet.Run(c, path, sm, circvet.Analyzers())
		if err != nil {
			return rep, err
		}
		rep.Findings = append(rep.Findings, findings...)
		if withResources {
			r := circvet.EstimateResources(c)
			rep.Resources = &r
		}
		return rep, nil
	}
}

// vetArtifact decodes a .qexe and reports verifier rejections as
// findings (decode failures are hard errors: the file isn't an artifact).
// A basename that is itself a fingerprint — the serving cache's on-disk
// layout — additionally pins the embedded source key to it.
func vetArtifact(path string) ([]circvet.Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	x, err := backend.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	verr := backend.VerifyExecutable(x)
	if verr == nil {
		if key := strings.TrimSuffix(filepath.Base(path), ".qexe"); isFingerprint(key) {
			verr = backend.VerifyExecutableKey(x, key)
		}
	}
	if verr != nil {
		return []circvet.Finding{{Analyzer: "artifact", File: path, Gate: -1, Region: -1,
			GlobalNoise: -1, GateNoise: -1, Message: verr.Error()}}, nil
	}
	return nil, nil
}

// isFingerprint reports whether s is 64 lowercase hex characters.
func isFingerprint(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeCorpus emits the vet-clean example circuits. Each is built from
// the repository's own circuit builders, prepared so every diagnostic
// pass is exercised without firing: GHZ entanglement before the QFT
// keeps its controls live, a Hadamard layer puts the adder's inputs in
// superposition, and region annotations match the emulation catalogue.
func writeCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	corpus := map[string]*circuit.Circuit{
		"ghz.qasm":   qft.Entangler(8),
		"qft.qasm":   qft.Entangler(6).Extend(qft.Circuit(6)),
		"adder.qasm": corpusAdder(3),
	}
	for name, c := range corpus {
		var buf bytes.Buffer
		if err := qasm.Write(&buf, c); err != nil {
			return fmt.Errorf("corpus %s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// corpusAdder builds |a⟩|b⟩ → |a⟩|a+b⟩ on superposed w-bit inputs, with
// the annotation the dispatcher lowers to a classical add.
func corpusAdder(w uint) *circuit.Circuit {
	c := circuit.New(2*w + 1)
	for q := uint(0); q < 2*w; q++ {
		c.Append(gates.H(q))
	}
	lo := c.Len()
	a, b := revlib.Seq(0, w), revlib.Seq(w, w)
	revlib.Adder(c, a, b, 2*w)
	args := []uint64{uint64(w)}
	for _, q := range a {
		args = append(args, uint64(q))
	}
	for _, q := range b {
		args = append(args, uint64(q))
	}
	args = append(args, uint64(2*w))
	c.Annotate(circuit.Region{Name: "add", Args: args, Lo: lo, Hi: c.Len()})
	return c
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
