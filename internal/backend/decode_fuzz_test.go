package backend_test

import (
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
