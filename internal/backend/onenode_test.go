package backend_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// TestSingleNodeSpellingsAreOneShape: Fused is the name of the cluster on
// one node, not an engine of its own. For every parity family, at every
// fusion width, with recognition off and on, {Kind: Fused} and
// {Kind: Cluster, Nodes: 1} normalize to one target: equal fingerprints
// and byte-identical artifacts.
func TestSingleNodeSpellingsAreOneShape(t *testing.T) {
	for family := uint8(0); family < 5; family++ {
		name, c := parityCircuit(2500+uint64(family), family, 3, 2)
		for _, mode := range []recognize.Mode{recognize.Off, recognize.Auto} {
			for _, w := range []int{1, 2, 4, 8} {
				fused := backend.Target{Kind: backend.Fused, FuseWidth: w, Emulate: mode}
				one := backend.Target{Kind: backend.Cluster, Nodes: 1, FuseWidth: w, Emulate: mode}
				label := fmt.Sprintf("%s/w%d-%v", name, w, mode)
				kf, err := backend.Fingerprint(c, fused)
				if err != nil {
					t.Fatal(err)
				}
				kc, err := backend.Fingerprint(c, one)
				if err != nil {
					t.Fatal(err)
				}
				if kf != kc {
					t.Errorf("%s: fingerprints differ: fused %.12s…, cluster P=1 %.12s…", label, kf, kc)
				}
				var art [2][]byte
				for i, tgt := range []backend.Target{fused, one} {
					x, err := backend.Compile(c, tgt)
					if err != nil {
						t.Fatal(err)
					}
					if art[i], err = x.Encode(); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(art[0], art[1]) {
					t.Errorf("%s: the two spellings encode to different artifacts (%d and %d bytes)", label, len(art[0]), len(art[1]))
				}
			}
		}
	}
}

// TestSingleNodeStateIsLive pins the Backend contract on one node: State
// returns the live register, so a write through it is what the next
// SampleMany reads — whichever way the target is spelled.
func TestSingleNodeStateIsLive(t *testing.T) {
	const n, basis = 6, 0b101101
	for _, tgt := range []backend.Target{
		{NumQubits: n, Kind: backend.Fused, FuseWidth: 4},
		{NumQubits: n, Kind: backend.Cluster, Nodes: 1},
	} {
		b, err := backend.New(tgt)
		if err != nil {
			t.Fatal(err)
		}
		st := b.State()
		st.SetAmplitude(0, 0)
		st.SetAmplitude(basis, 1)
		if b.State() != st {
			t.Errorf("%v: State returned a different vector on the second call", tgt.Kind)
		}
		for i, got := range b.SampleMany(32, rng.New(1)) {
			if got != basis {
				t.Fatalf("%v: draw %d is |%d> after writing |%d> through State", tgt.Kind, i, got, basis)
			}
		}
		if p := b.Probability(0); p != 1 {
			t.Errorf("%v: P(q0=1) = %g after writing |%d> through State, want 1", tgt.Kind, p, basis)
		}
		b.Close()
	}
}
