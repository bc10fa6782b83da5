package backend_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
)

// FuzzDecodeExecutable holds the decoder to its contract over arbitrary
// bytes: Decode returns an executable or an error and never panics, and an
// artifact that Decode and VerifyExecutable both accept runs on a backend
// opened for its own target without panicking (registers of at most 10
// qubits, so a run stays cheap). The seeds reach every section of the one
// layout: the codec round trips of every acceptance workload under every
// codec target shape, a noisy artifact per shape, and the crc-valid mutants
// of TestVerifyMutationCorpus.
func FuzzDecodeExecutable(f *testing.F) {
	add := func(x *backend.Executable) {
		data, err := x.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, w := range parityWorkloads() {
		for _, tgt := range codecTargets(w.c.NumQubits) {
			x, err := backend.Compile(w.c, tgt)
			if err != nil {
				f.Fatal(err)
			}
			add(x)
		}
	}
	for _, tgt := range codecTargets(8) {
		x, err := backend.Compile(noisyWorkload(), tgt)
		if err != nil {
			f.Fatal(err)
		}
		add(x)
	}
	for _, m := range verifyMutants() {
		x := verifyWorkload(f, m.target)
		m.mutate(f, x)
		add(x)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := backend.Decode(data)
		if err != nil || backend.VerifyExecutable(x) != nil || x.NumQubits > 10 {
			return
		}
		b, err := backend.New(x.Target)
		if err != nil {
			return
		}
		defer b.Close()
		if _, err := b.Run(x); err != nil {
			t.Fatalf("verified artifact failed to run on its own target: %v", err)
		}
	})
}

// TestDecodeCrasherSeedsReachTheirChecks: each checked-in crasher of
// FuzzDecodeExecutable is an artifact of the current layout that fails at
// the count check it was found through, not at the version check a
// layout change would otherwise stop it at.
func TestDecodeCrasherSeedsReachTheirChecks(t *testing.T) {
	for name, want := range map[string]string{
		"gate-count-past-payload":  "gate count 4294967295 exceeds its payload",
		"unit-count-past-artifact": "unit count 4294967295 exceeds artifact",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeExecutable", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", name, err)
		}
		if _, err := backend.Decode([]byte(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Decode returned %v, want %q", name, err, want)
		}
	}
}
