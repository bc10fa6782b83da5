package circvet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circvet"
	"repro/internal/qasm"
	"repro/internal/qft"
)

// wantRe matches a `# want "regex" ["regex" ...]` directive; quotedRe
// pulls out the individual quoted expectations.
var (
	wantRe   = regexp.MustCompile(`#\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// wantDirective is one expected finding: a message regexp anchored to a
// source line.
type wantDirective struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, src string) []*wantDirective {
	t.Helper()
	var wants []*wantDirective
	for i, line := range strings.Split(src, "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quotedRe.FindAllString(m[1], -1) {
			expr, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("line %d: bad want expression %s: %v", i+1, q, err)
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("line %d: bad want regexp %q: %v", i+1, expr, err)
			}
			wants = append(wants, &wantDirective{line: i + 1, re: re})
		}
	}
	return wants
}

// TestFixtures runs the full analyzer suite over every testdata circuit
// and checks findings against the `# want "regex"` directives, both
// ways: every want must be matched by a finding on its line, and every
// finding must be expected.
func TestFixtures(t *testing.T) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, string(data))
			c, sm, err := qasm.ParseSource(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			findings, err := circvet.Run(c, file, sm, circvet.Analyzers())
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				expected := false
				for _, w := range wants {
					if w.line == f.Line && w.re.MatchString(f.Message) {
						w.matched = true
						expected = true
					}
				}
				if !expected {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("line %d: no finding matched %q", w.line, w.re)
				}
			}
		})
	}
}

// TestRunWithoutSource checks the analyses work on builder-made circuits
// with no source map: findings anchor with Line 0 and gate indices.
func TestRunWithoutSource(t *testing.T) {
	// A bare QFT from |0…0⟩: every controlled phase has a stuck control
	// (its control qubit gets its Hadamard only later).
	c := qft.Circuit(4)
	findings, err := circvet.Run(c, "", nil, circvet.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	stuck := 0
	for _, f := range findings {
		if f.Line != 0 {
			t.Errorf("finding has line %d without a source map: %s", f.Line, f)
		}
		if f.Analyzer == "liveness" && strings.Contains(f.Message, "can never fire") {
			stuck++
		}
	}
	if stuck == 0 {
		t.Errorf("bare QFT from |0…0⟩ should report stuck controls; findings: %v", findings)
	}

	// The same QFT after GHZ preparation is clean.
	prepped := qft.Entangler(4).Extend(qft.Circuit(4))
	findings, err = circvet.Run(prepped, "", nil, circvet.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("entangled QFT should be clean, got %v", findings)
	}
}

// TestEstimateResources sanity-checks the static estimator against the
// known shape of the annotated QFT benchmark.
func TestEstimateResources(t *testing.T) {
	c := qft.Entangler(6).Extend(qft.Circuit(6))
	r := circvet.EstimateResources(c)
	if r.NumQubits != 6 || r.NumGates != c.Len() {
		t.Fatalf("estimate echoes wrong shape: %+v", r)
	}
	if r.StateBytes != 16<<6 {
		t.Errorf("state bytes = %d, want %d", r.StateBytes, 16<<6)
	}
	if len(r.Regions) != 1 || r.Regions[0].Kind != "qft" {
		t.Errorf("expected one recognised qft region, got %+v", r.Regions)
	}
	if want := qft.Circuit(6).Len(); r.RecognizedGates != want {
		t.Errorf("recognized gates = %d, want %d", r.RecognizedGates, want)
	}
	if r.Chosen == "" || r.PredictedSecs <= 0 {
		t.Errorf("estimate carries no selection: %+v", r)
	}
	if !strings.Contains(r.Report(), "region qft") {
		t.Errorf("human report omits the region:\n%s", r.Report())
	}
}

// TestNoisecheckBuilderCircuit exercises the noise-model audits the qasm
// frontend already rejects at parse time but nothing enforces on
// API-built circuits: out-of-range probabilities, attachments past the
// gate list, and channels on qubits the register does not have.
func TestNoisecheckBuilderCircuit(t *testing.T) {
	c := qft.Entangler(3)
	c.Noise = &circuit.NoiseModel{
		Global: []circuit.Channel{{Kind: circuit.FlipX, P: 1.5}},
		PerGate: []circuit.GateNoise{
			{Gate: 99, Qubit: 0, Ch: circuit.Channel{Kind: circuit.FlipZ, P: 0.1}},
			{Gate: 0, Qubit: 7, Ch: circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.1}},
		},
	}
	findings, err := circvet.Run(c, "", nil, circvet.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, f := range findings {
		if f.Analyzer == "noisecheck" {
			msgs = append(msgs, f.Message)
		}
	}
	if len(msgs) != 3 {
		t.Fatalf("want 3 noisecheck findings, got %d: %v", len(msgs), msgs)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"outside [0,1]", "attached to gate 99", "unknown qubit 7"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no finding mentions %q; got:\n%s", want, joined)
		}
	}

	// A valid model with damping strictly after each qubit's final gate
	// is clean.
	clean := qft.Entangler(3)
	clean.AttachNoise(clean.Len()-1, 2, circuit.Channel{Kind: circuit.PhaseDamping, P: 0.2})
	findings, err = circvet.Run(clean, "", nil, circvet.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "noisecheck" {
			t.Errorf("clean model flagged: %s", f)
		}
	}
}
