package experiments

import "testing"

// TestClusterCountsPinned pins what the cluster and cluster-emulate sweeps
// count rather than time: communication rounds and bytes per run at the
// quick size (2^12 amplitudes per node). The counts depend only on the
// circuit and the target, so any change here is a change to the fusion
// planner, the placement scheduler or a distributed lowering. A is the
// first series of the sweep (naive engine; scheduled gate engine), B the
// second (scheduled engine; emulation dispatch).
func TestClusterCountsPinned(t *testing.T) {
	type counts struct {
		circuit         string
		nodes           int
		roundsA, bytesA uint64
		roundsB, bytesB uint64
	}
	check := func(sweep string, want []counts, got []counts) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", sweep, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Errorf("%s: got %+v, want %+v", sweep, got[i], w)
			}
		}
	}

	var got []counts
	for _, r := range Cluster(ClusterConfig{LocalQubits: 12, MinNodes: 2, MaxNodes: 8, FuseWidth: 4}) {
		got = append(got, counts{r.Circuit, r.Nodes, r.NaiveRounds, r.NaiveBytes, r.SchedRounds, r.SchedBytes})
	}
	check("cluster", []counts{
		{"qft", 2, 3, 393216, 2, 131072},
		{"brickwork", 2, 12, 1572864, 7, 458752},
		{"random", 2, 16, 2097152, 10, 655360},
		{"qft", 4, 6, 1572864, 3, 589824},
		{"brickwork", 4, 24, 5767168, 7, 1376256},
		{"random", 4, 27, 6946816, 12, 2359296},
		{"qft", 8, 9, 4718592, 3, 1310720},
		{"brickwork", 8, 36, 16777216, 7, 3211264},
		{"random", 8, 41, 21233664, 16, 6946816},
	}, got)

	got = nil
	for _, r := range ClusterEmulate(ClusterEmulateConfig{LocalQubits: 12, MinNodes: 2, MaxNodes: 4, FuseWidth: 4}) {
		got = append(got, counts{r.Circuit, r.Nodes, r.GateRounds, r.GateBytes, r.EmuRounds, r.EmuBytes})
	}
	check("cluster-emulate", []counts{
		{"qft", 2, 2, 131072, 3, 196608},
		{"qft-noswap", 2, 2, 131072, 3, 196608},
		{"multiplier-m4", 2, 1, 65536, 1, 0},
		{"qft", 4, 3, 589824, 3, 589824},
		{"qft-noswap", 4, 2, 393216, 3, 589824},
		// The cluster-wide permutation sends only non-zero amplitudes: from
		// |0...0> this row moved 0 bytes, from the dense start state the
		// sweep now uses it moves the 3840 amplitudes that change node.
		{"multiplier-m4", 4, 1, 98304, 1, 61440},
	}, got)
}
