package backend_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/qft"
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

// TestTargetFingerprintsPinned pins the serving cache's keys: one fixed
// circuit fingerprints to the same hex under every spelling of its
// shapes, so artifacts persisted under these keys stay addressable.
func TestTargetFingerprintsPinned(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	for _, tc := range []struct {
		name string
		t    backend.Target
		want string
	}{
		{"fused w=4", backend.Target{Kind: backend.Fused, FuseWidth: 4},
			"d22b4c6c9522fb313b56d3e90cca0baea3f6fd9411862bb847c7038be03df6aa"},
		{"cluster P=1 w=4", backend.Target{Kind: backend.Cluster, Nodes: 1, FuseWidth: 4},
			"d22b4c6c9522fb313b56d3e90cca0baea3f6fd9411862bb847c7038be03df6aa"},
		{"cluster P=4 emulating", backend.Target{Kind: backend.Cluster, Nodes: 4, Emulate: recognize.Auto},
			"baac43f9c9744e2ecb2eb2cfffde55f5c061f97afea3d63dc51190cff22da272"},
		{"generic", backend.Target{Kind: backend.Generic},
			"a4516aeee05e108262907fab6f6f58371bc5ff268b89a8ff17d24ce919949e2c"},
		{"auto", backend.Target{Auto: true},
			"e3239c2911046bbff7dfa7a2f3ae4b3c2eeab2ebc6f0fcdb5781563d0289820c"},
	} {
		got, err := backend.Fingerprint(c, tc.t)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFuseWidthKeysAreCanonical: fusion widths that run identically
// share one cache key — a negative width and 0, widths at and past the
// register on 8 qubits, a Generic target with and without a width — and
// normalize to one target; 0 and 1 stay distinct keys.
func TestFuseWidthKeysAreCanonical(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	key := func(tgt backend.Target) string {
		t.Helper()
		k, err := backend.Fingerprint(c, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, pair := range [][2]backend.Target{
		{{Kind: backend.Cluster, FuseWidth: -3}, {Kind: backend.Cluster, FuseWidth: 0}},
		{{Kind: backend.Fused, FuseWidth: 8}, {Kind: backend.Fused, FuseWidth: 20}},
		{{Kind: backend.Cluster, Nodes: 4, FuseWidth: 6}, {Kind: backend.Cluster, Nodes: 4, FuseWidth: 7}},
		{{Kind: backend.Generic}, {Kind: backend.Generic, FuseWidth: 4}},
	} {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("widths %d and %d (%v, %d nodes) key apart: %.12s… and %.12s…",
				pair[0].FuseWidth, pair[1].FuseWidth, pair[0].Kind, pair[0].Nodes, a, b)
		}
		var shapes [2]backend.Target
		for i, tgt := range pair {
			b, err := backend.New(backend.Target{NumQubits: 8, Kind: tgt.Kind, Nodes: tgt.Nodes, FuseWidth: tgt.FuseWidth})
			if err != nil {
				t.Fatal(err)
			}
			shapes[i] = b.Target()
			b.Close()
		}
		if shapes[0] != shapes[1] {
			t.Errorf("widths %d and %d normalize to %+v and %+v", pair[0].FuseWidth, pair[1].FuseWidth, shapes[0], shapes[1])
		}
	}
	if key(backend.Target{Kind: backend.Fused, FuseWidth: 0}) == key(backend.Target{Kind: backend.Fused, FuseWidth: 1}) {
		t.Error("widths 0 and 1 share a key; the pinned keys spell them apart")
	}
}

// TestFusedNodesIsCluster: Nodes picks the node count under either name.
// {Kind: Fused, Nodes: 4} opens, normalizes and fingerprints as
// {Kind: Cluster, Nodes: 4}, and runs to bit-identical amplitudes.
func TestFusedNodesIsCluster(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	for _, mode := range []recognize.Mode{recognize.Off, recognize.Auto} {
		fused := backend.Target{NumQubits: 8, Kind: backend.Fused, Nodes: 4, FuseWidth: 3, Emulate: mode}
		cl := fused
		cl.Kind = backend.Cluster
		var keys [2]string
		var shapes [2]backend.Target
		var amps [2][]complex128
		for i, tgt := range []backend.Target{fused, cl} {
			var err error
			if keys[i], err = backend.Fingerprint(c, tgt); err != nil {
				t.Fatal(err)
			}
			b, err := backend.New(tgt)
			if err != nil {
				t.Fatalf("%v: %v", tgt.Kind, err)
			}
			shapes[i] = b.Target()
			x, err := backend.Compile(c, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Run(x); err != nil {
				t.Fatal(err)
			}
			amps[i] = b.State().Amplitudes()
			b.Close()
		}
		if shapes[0] != shapes[1] {
			t.Errorf("%v: fused P=4 normalizes to %+v, cluster P=4 to %+v", mode, shapes[0], shapes[1])
		}
		if shapes[0].Nodes != 4 {
			t.Errorf("%v: fused P=4 opened on %d nodes", mode, shapes[0].Nodes)
		}
		if keys[0] != keys[1] {
			t.Errorf("%v: fingerprints differ: fused %.12s…, cluster %.12s…", mode, keys[0], keys[1])
		}
		for i := range amps[0] {
			if amps[0][i] != amps[1][i] {
				t.Fatalf("%v: amplitude %d is %v under fused P=4, %v under cluster P=4", mode, i, amps[0][i], amps[1][i])
			}
		}
	}
}
