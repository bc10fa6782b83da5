package backend_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// verifyWorkload compiles the representative serve artifact — gate-level
// prep plus a recognised QFT region — under the given target shape.
func verifyWorkload(t testing.TB, tgt backend.Target) *backend.Executable {
	t.Helper()
	c := prep(8)
	c.Extend(qft.Circuit(8))
	tgt.NumQubits = 8
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// diagWorkload compiles gate-level prep plus a diagonal run over six
// qubits, wider than the target's fusion width, so it compiles to a
// diagonal op unit.
func diagWorkload(t *testing.T, tgt backend.Target) *backend.Executable {
	t.Helper()
	c := prep(8)
	for q := uint(0); q < 6; q++ {
		c.Append(gates.T(q), gates.CR(q, q+1, 0.3+float64(q)))
	}
	tgt.NumQubits = 8
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// findUnit returns the index of the first unit satisfying pred.
func findUnit(t testing.TB, x *backend.Executable, what string, pred func(u *backend.Unit) bool) int {
	t.Helper()
	for i := range x.Units {
		if pred(&x.Units[i]) {
			return i
		}
	}
	t.Fatalf("workload compiled without a %s unit", what)
	return -1
}

// TestVerifyCompiledExecutables: everything Compile emits passes the
// structural verifier, under every codec target shape and for every
// acceptance workload, both bare and keyed by its own fingerprint.
func TestVerifyCompiledExecutables(t *testing.T) {
	for _, w := range parityWorkloads() {
		for _, tgt := range codecTargets(w.c.NumQubits) {
			x, err := backend.Compile(w.c, tgt)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", w.name, tgt.Kind, err)
			}
			if err := backend.VerifyExecutable(x); err != nil {
				t.Errorf("%s/%s: compiled executable fails verification: %v", w.name, tgt.Kind, err)
			}
			if err := backend.VerifyExecutableKey(x, x.SourceKey); err != nil {
				t.Errorf("%s/%s: keyed verification under own key: %v", w.name, tgt.Kind, err)
			}
			wrong := strings.Repeat("ab", 32)
			if err := backend.VerifyExecutableKey(x, wrong); err == nil {
				t.Errorf("%s/%s: keyed verification accepted a foreign key", w.name, tgt.Kind)
			}
		}
	}
}

// TestVerifyMutationCorpus is the semantic-corruption suite: each case
// mutates a freshly compiled executable in a way the codec cannot see —
// Encode recomputes the crc32, so every mutant is a perfectly checksummed
// artifact — and requires that Decode accepts the bytes while
// VerifyExecutable rejects the result. This is exactly the gap the
// verifier exists to close.
func TestVerifyMutationCorpus(t *testing.T) {
	local := backend.Target{FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	isOp := func(u *backend.Unit) bool { return u.Op != nil }

	requireRejected := func(t *testing.T, x *backend.Executable) {
		data, err := x.Encode()
		if err != nil {
			t.Fatalf("mutant failed to encode: %v", err)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatalf("mutant rejected by Decode — the crc accepted it, so this case belongs to the codec tests, not here: %v", err)
		}
		if err := backend.VerifyExecutable(y); err == nil {
			t.Fatal("verifier accepted a semantically corrupt artifact")
		}
	}
	for _, tc := range verifyMutants() {
		t.Run(tc.name, func(t *testing.T) {
			x := verifyWorkload(t, tc.target)
			tc.mutate(t, x)
			requireRejected(t, x)
		})
	}

	// The workload above holds no diagonal op, so this mutant gets its own:
	// a NaN in the table must fail the modulus test, not compare as "not
	// larger" than its tolerance.
	t.Run("NaN diagonal entry", func(t *testing.T) {
		x := diagWorkload(t, local)
		i := findUnit(t, x, "diagonal op", func(u *backend.Unit) bool {
			if u.Op == nil {
				return false
			}
			_, _, ok := u.Op.DiagTable()
			return ok
		})
		d, _, _ := x.Units[i].Op.DiagTable()
		d[len(d)/2] = complex(math.NaN(), 0)
		requireRejected(t, x)
	})

	// An op's registers are not reachable in memory, so these mutants are
	// made on the wire: the second register's qubit list is overwritten
	// with the first's and the crc recomputed. Range and shape still hold;
	// the op's map on basis indices is no longer a bijection, which the
	// permutation kernels assume. The op payload check is shared by Decode
	// and the verifier, so the mutant may stop at either — before the fix
	// it passed both and ran.
	arith := backend.Target{FuseWidth: 3, Emulate: recognize.Annotated}
	first, second := revlib.Seq(0, 2), revlib.Seq(2, 2)
	for _, tc := range []struct {
		kind  string
		n     uint
		build func(c *circuit.Circuit)
	}{
		{"add", 5, func(c *circuit.Circuit) { revlib.Adder(c, first, second, 4) }},
		{"sub", 5, func(c *circuit.Circuit) { revlib.Subtractor(c, first, second, 4) }},
		{"addc", 6, func(c *circuit.Circuit) { revlib.AdderWithCarryOut(c, first, second, 4, 5) }},
		{"mul", 7, func(c *circuit.Circuit) { revlib.Multiplier(c, first, second, revlib.Seq(4, 2), 6) }},
		{"div", 6, func(c *circuit.Circuit) {
			revlib.Divider(c, revlib.DividerLayout{M: 1, R: first, B: revlib.Seq(2, 1), Q: revlib.Seq(3, 1), BZ: 4, CarryAnc: 5})
		}},
	} {
		t.Run("overlapping "+tc.kind+" registers", func(t *testing.T) {
			c := circuit.New(tc.n)
			tc.build(c)
			x, err := backend.Compile(c, arith)
			if err != nil {
				t.Fatal(err)
			}
			if i := findUnit(t, x, "op", isOp); x.Units[i].Op.Kind() != tc.kind {
				t.Fatalf("compiled a %s op, want %s", x.Units[i].Op.Kind(), tc.kind)
			}
			data, err := x.Encode()
			if err != nil {
				t.Fatal(err)
			}
			// The divider's first register is twice the width of its
			// others: its mutant makes the quotient the divisor.
			from, to := []uint(second), []uint(first)
			if tc.kind == "div" {
				from, to = []uint{3}, []uint{2}
			}
			data = overwriteQubits(t, data, from, to)
			y, err := backend.Decode(data)
			if err != nil {
				return
			}
			if err := backend.VerifyExecutable(y); err == nil {
				t.Fatal("Decode and the verifier both accepted an op whose registers overlap")
			}
		})
	}

	// The control: the unmutated artifact round-trips and verifies clean
	// under both targets — the corpus rejections above are not the
	// verifier rejecting everything.
	for _, tgt := range []backend.Target{local, clustered} {
		x := verifyWorkload(t, tgt)
		data, err := x.Encode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.VerifyExecutable(y); err != nil {
			t.Fatalf("%s: clean round-trip fails verification: %v", tgt.Kind, err)
		}

		// The other half of the noise cases above: the same planted points
		// where they are legal. A soft point inside a gate unit (the unit
		// carries the gates a struck replay needs), and either class on a
		// unit's last gate, op or not.
		for _, ok := range []struct {
			name string
			kind circuit.ChannelKind
			unit func(u *backend.Unit) bool
			back int // the point sits on gate Hi-back
		}{
			{"soft point inside a gate unit", circuit.FlipX, func(u *backend.Unit) bool { return u.Op == nil && u.Hi-u.Lo >= 2 }, 2},
			{"damping point closing a gate unit", circuit.PhaseDamping, func(u *backend.Unit) bool { return u.Op == nil }, 1},
			{"damping point closing an op", circuit.AmplitudeDamping, func(u *backend.Unit) bool { return u.Op != nil }, 1},
		} {
			x := verifyWorkload(t, tgt)
			plantNoise(x, x.Units[findUnit(t, x, ok.name, ok.unit)].Hi-ok.back, ok.kind)
			data, err := x.Encode()
			if err != nil {
				t.Fatal(err)
			}
			y, err := backend.Decode(data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", tgt.Kind, ok.name, err)
			}
			if err := backend.VerifyExecutable(y); err != nil {
				t.Errorf("%s/%s: rejected: %v", tgt.Kind, ok.name, err)
			}
		}
	}
}

// verifyMutant is one case of the semantic-corruption corpus: a mutation
// of a freshly compiled verifyWorkload the codec cannot see.
type verifyMutant struct {
	name   string
	target backend.Target
	mutate func(t testing.TB, x *backend.Executable)
}

// verifyMutants is TestVerifyMutationCorpus's table, shared with the
// decoder fuzz target as seeds: every mutant is a crc-valid artifact.
func verifyMutants() []verifyMutant {
	local := backend.Target{FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	isOp := func(u *backend.Unit) bool { return u.Op != nil }
	isGate := func(u *backend.Unit) bool { return u.Op == nil }
	return []verifyMutant{
		{"source key not hex", local, func(t testing.TB, x *backend.Executable) {
			x.SourceKey = strings.Repeat("Z", 64)
		}},
		{"source key truncated", local, func(t testing.TB, x *backend.Executable) {
			x.SourceKey = x.SourceKey[:40]
		}},
		{"source key missing", local, func(t testing.TB, x *backend.Executable) {
			x.SourceKey = ""
		}},
		{"implausible worker cap", local, func(t testing.TB, x *backend.Executable) {
			x.Target.Workers = 1 << 21
		}},
		{"inverted skip range", local, func(t testing.TB, x *backend.Executable) {
			x.Skipped = append(x.Skipped, recognize.Skip{Name: "fake", Lo: 5, Hi: 2, Reason: "planted"})
		}},
		{"skip range past the circuit", local, func(t testing.TB, x *backend.Executable) {
			x.Skipped = append(x.Skipped, recognize.Skip{Name: "fake", Lo: 0, Hi: x.NumGates + 1})
		}},
		{"non-unitary gate matrix", local, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Gates[0].Matrix[0] *= 1.5
		}},
		{"op range disagrees with unit", local, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Op.Hi--
		}},
		{"foreign substrate on local target", local, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Substrate = "bogus"
		}},
		{"foreign substrate on cluster target", clustered, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Substrate = "bogus"
		}},
		{"non-unitary gate on cluster target", clustered, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Gates[0].Matrix[3] = 0
		}},
		// A planted noise point at an interior gate is valid wire bytes —
		// sorted, in range, probability in [0,1]. Whether it is a valid
		// plan depends on its class and on the unit it lands in: a damping
		// point must close its unit (its branch needs the state at its own
		// gate), and no point may fall inside a recognised op (there are no
		// gates to replay a strike through).
		{"damping point off its unit's last gate", local, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate gate-level", func(u *backend.Unit) bool { return u.Op == nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Hi-2, circuit.AmplitudeDamping)
		}},
		{"soft point strictly inside an op", local, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate op", func(u *backend.Unit) bool { return u.Op != nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Hi-2, circuit.FlipX)
		}},
		{"soft point strictly inside an op on a cluster target", clustered, func(t testing.TB, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate op", func(u *backend.Unit) bool { return u.Op != nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Lo, circuit.Depolarizing)
		}},
	}
}

// overwriteQubits replaces the qubit list from (found once among the
// register arguments of the artifact's one op) with to, of the same
// length, in the encoded artifact, and recomputes the container checksum.
// An op is written as its region form, so the list sits inside the
// region's args.
func overwriteQubits(t *testing.T, data []byte, from, to []uint) []byte {
	t.Helper()
	x, err := backend.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	args := x.Units[findUnit(t, x, "op", func(u *backend.Unit) bool { return u.Op != nil })].Op.Region().Args
	mutated, hits := slices.Clone(args), 0
	for i := 1; i+len(from) <= len(args); i++ { // args[0] is the width
		if slices.Equal(args[i:i+len(from)], wideArgs(from)) {
			copy(mutated[i:], wideArgs(to))
			hits++
		}
	}
	wire := func(vs []uint64) []byte {
		w := binio.NewWriter(nil)
		w.U64s(vs)
		return w.Bytes()
	}
	if n := bytes.Count(data, wire(args)); hits != 1 || n != 1 {
		t.Fatalf("the op's args %v hold the qubit list %v %d times and the artifact holds the args %d times, want once each",
			args, from, hits, n)
	}
	data = bytes.Replace(data, wire(args), wire(mutated), 1)
	// magic (4) | version (2) | crc32 of the rest (4)
	binary.LittleEndian.PutUint32(data[6:10], crc32.ChecksumIEEE(data[10:]))
	return data
}

// wideArgs converts a qubit list to region args.
func wideArgs(qs []uint) []uint64 {
	out := make([]uint64, len(qs))
	for i, q := range qs {
		out[i] = uint64(q)
	}
	return out
}

// plantNoise replaces x's noise plan by one point of the given kind after
// gate g, on qubit 0.
func plantNoise(x *backend.Executable, g int, kind circuit.ChannelKind) {
	x.Noise = &backend.NoisePlan{Points: []backend.NoisePoint{{
		Gate: g, Qubit: 0, Ch: circuit.Channel{Kind: kind, P: 0.5},
	}}}
}

// TestVerifyRejectsPrefixMutants corrupts the product prefix of a first
// gate unit, one invariant per case. The prefix is derived, never on the
// wire, so like the plans and schedules it can only be corrupted in
// memory; each mutant breaks exactly the invariant its name gives.
func TestVerifyRejectsPrefixMutants(t *testing.T) {
	const n = 8
	local := backend.Target{NumQubits: n, FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	// lastRemainder is the offset of unit 0's last gate outside the
	// prefix: it follows remainder gates on its qubits.
	lastRemainder := func(u *backend.Unit) int {
		in := map[int]bool{}
		for _, i := range u.Prefix.Index {
			in[i] = true
		}
		for j := len(u.Gates) - 1; j >= 0; j-- {
			if !in[j] {
				return j
			}
		}
		return -1
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(t *testing.T, x *backend.Executable)
	}{
		{"prefix cluster wider than half the register", "qubits wide, at most", func(t *testing.T, x *backend.Executable) {
			p := x.Units[0].Prefix
			wide := statevec.New(n/2 + 1).Amplitudes()
			p.Clusters = [][]uint{{0, 1, 2, 3, 4}}
			p.Vectors = [][]complex128{wide}
		}},
		{"overlapping prefix clusters", "disjoint", func(t *testing.T, x *backend.Executable) {
			p := x.Units[0].Prefix
			p.Clusters[1], p.Vectors[1] = p.Clusters[0], p.Vectors[0]
		}},
		{"prefix gate across two clusters", "does not lie inside one cluster", func(t *testing.T, x *backend.Executable) {
			// Cluster 0 (the CNOTs pairing the halves and a CZ joined its
			// qubits) split into one cluster per qubit, each left in |0>.
			p := x.Units[0].Prefix
			var clusters [][]uint
			var vectors [][]complex128
			for _, q := range p.Clusters[0] {
				clusters = append(clusters, []uint{q})
				vectors = append(vectors, []complex128{1, 0})
			}
			p.Clusters = append(clusters, p.Clusters[1:]...)
			p.Vectors = append(vectors, p.Vectors[1:]...)
		}},
		{"prefix gate after a remainder gate on its qubit", "shares a qubit with an earlier remainder gate", func(t *testing.T, x *backend.Executable) {
			u := &x.Units[0]
			u.Prefix.Index = append(u.Prefix.Index, lastRemainder(u))
		}},
		{"prefix gates out of source order", "not an ascending list", func(t *testing.T, x *backend.Executable) {
			ix := x.Units[0].Prefix.Index
			ix[0], ix[1] = ix[1], ix[0]
		}},
		{"prefix cluster state not normalised", "state has norm", func(t *testing.T, x *backend.Executable) {
			x.Units[0].Prefix.Vectors[0][0] *= 2
		}},
		{"prefix beside a noise plan", "noise-free", func(t *testing.T, x *backend.Executable) {
			plantNoise(x, x.Units[0].Hi-1, circuit.FlipX)
		}},
		{"prefix on a later unit", "recognised op and carries a product prefix", func(t *testing.T, x *backend.Executable) {
			x.Units[len(x.Units)-1].Prefix = x.Units[0].Prefix
		}},
	} {
		for _, target := range []backend.Target{local, clustered} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, max(target.Nodes, 1)), func(t *testing.T) {
				x, err := backend.Compile(prefixWorkload(n), target)
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.VerifyExecutable(x); err != nil {
					t.Fatalf("unmutated executable rejected: %v", err)
				}
				if x.Units[0].Prefix == nil || len(x.Units[0].Prefix.Clusters) < 2 {
					t.Fatal("workload compiled without a product prefix of two clusters")
				}
				tc.mutate(t, x)
				if err := backend.VerifyExecutable(x); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("verifier answered %v, want an error naming %q", err, tc.want)
				}
			})
		}
	}
}

// TestVerifyRejectsSpanMutants corrupts the span of a product prefix
// carried past its first unit (carriedWorkload: a gate unit, an absorbed
// diagonal, a gate unit, then the QFT), one check per case, each held to
// its own message. Two diagonal mutants swap in the op carriedWorkload
// compiles to with one of its four gates replaced (spannedVariant): one
// that does not split and one that does, whose factors the verifier checks
// one by one; a third extends a CZ-pair diagonal's span (czPairs) over a
// factor on a closed qubit.
func TestVerifyRejectsSpanMutants(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name, want string
		mutate     func(t *testing.T, x *backend.Executable)
	}{
		{"span past the unit list", "span ends at unit", func(t *testing.T, x *backend.Executable) {
			x.Units[0].Prefix.End = len(x.Units) + 1
		}},
		{"span over an op on a closed qubit", "op in the prefix's span shares a qubit with an earlier remainder gate", func(t *testing.T, x *backend.Executable) {
			// The whole-register QFT after the span touches the qubits the
			// CNOT across the halves closed.
			x.Units[0].Prefix.End++
		}},
		{"span op across two clusters", "op in the prefix's span does not lie inside one cluster", func(t *testing.T, x *backend.Executable) {
			// A chain of CZs on qubits 0 to 4, which does not split, where
			// qubit 4 is in another cluster.
			x.Units[1].Op = spannedVariant(t, x, n+3, gates.CZ(3, 4))
		}},
		{"span factor across two clusters", "op's factor on qubits [0 1 4] straddles prefix clusters", func(t *testing.T, x *backend.Executable) {
			// CZ(0,1)·CZ(1,4) times CZ(2,3)·T(3): the second factor lies in
			// the first cluster, the first reaches qubit 4 in the other.
			x.Units[1].Op = spannedVariant(t, x, n+2, gates.CZ(1, 4))
		}},
		{"span factor on a closed qubit", "op's factor on qubits [0 1] holds a qubit an earlier remainder gate closed", func(t *testing.T, x *backend.Executable) {
			// The CZ-pair diagonal whose first factor holds qubit 0, which
			// the CNOT before it closed: its span ends before the op until
			// the mutant extends it over the op.
			y, err := backend.Compile(czPairs(rng.New(1), n, "factor-closed"), x.Target)
			if err != nil {
				t.Fatal(err)
			}
			if p := y.Units[0].Prefix; p == nil || p.End != 1 || len(y.Units) < 2 || y.Units[1].Op == nil {
				t.Fatal("the CZ-pair variant compiled without a prefix that stops before its diagonal")
			}
			y.Units[0].Prefix.End++
			*x = *y
		}},
		{"remainder holds a prefix gate", "in neither the prefix nor, in source order, the remainder", func(t *testing.T, x *backend.Executable) {
			// The gate before the remainder's first is a prefix gate: listing
			// it instead keeps the list ascending and its length.
			x.Units[0].Prefix.Rest[0]--
		}},
		{"remainder out of source order", "remainder is not an ascending list", func(t *testing.T, x *backend.Executable) {
			r := x.Units[0].Prefix.Rest
			r[0], r[1] = r[1], r[0]
		}},
		{"spanned unit planned", "lies inside the product prefix's span and carries a plan of its own", func(t *testing.T, x *backend.Executable) {
			x.Units[2].Fused, x.Units[2].Sched = x.Units[0].Fused, x.Units[0].Sched
		}},
	} {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, p), func(t *testing.T) {
				x, err := backend.Compile(carriedWorkload(n), backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.VerifyExecutable(x); err != nil {
					t.Fatalf("unmutated executable rejected: %v", err)
				}
				if pre := x.Units[0].Prefix; pre == nil || pre.End != 3 || len(x.Units) != 4 {
					t.Fatal("workload compiled without a prefix spanning three of four units")
				}
				tc.mutate(t, x)
				if err := backend.VerifyExecutable(x); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("verifier answered %v, want an error naming %q", err, tc.want)
				}
			})
		}
	}
}

// spannedVariant compiles carriedWorkload for x's target with gate i
// replaced by g and returns its unit 1, which must be a diagonal over the
// same gates as x's.
func spannedVariant(t *testing.T, x *backend.Executable, i int, g gates.Gate) *recognize.Op {
	t.Helper()
	c := carriedWorkload(x.NumQubits)
	c.Gates[i] = g
	y, err := backend.Compile(c, x.Target)
	if err != nil {
		t.Fatal(err)
	}
	if op := y.Units[1].Op; op == nil || op.Kind() != "diagonal" || op.Lo != x.Units[1].Lo || op.Hi != x.Units[1].Hi {
		t.Fatalf("variant's unit 1 is %v, want a diagonal over gates [%d,%d)", op, x.Units[1].Lo, x.Units[1].Hi)
	}
	return y.Units[1].Op
}

// TestVerifyRejectsDirect exercises the invariants the codec masks: these
// corruptions cannot travel through Encode/Decode (the decoder normalizes
// targets and rebuilds plans), but an in-memory executable handed to the
// verifier can still carry them.
func TestVerifyRejectsDirect(t *testing.T) {
	local := backend.Target{FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	isGate := func(u *backend.Unit) bool { return u.Op == nil }

	cases := []struct {
		name   string
		target backend.Target
		mutate func(t *testing.T, x *backend.Executable)
	}{
		{"unresolved auto target", local, func(t *testing.T, x *backend.Executable) {
			x.Target.Auto = true
		}},
		{"zero-width register", local, func(t *testing.T, x *backend.Executable) {
			x.NumQubits = 0
		}},
		{"denormalized target", local, func(t *testing.T, x *backend.Executable) {
			x.Target.Nodes = 0 // normalize fills 1; a compiled artifact always carries it
		}},
		{"target width disagrees with register", local, func(t *testing.T, x *backend.Executable) {
			x.Target.NumQubits--
		}},
		{"missing fusion plan", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Fused = nil
		}},
		{"counter drift", local, func(t *testing.T, x *backend.Executable) {
			x.EmulatedGates++
		}},
		{"empty noise plan", local, func(t *testing.T, x *backend.Executable) {
			x.Noise = &backend.NoisePlan{} // ideal executables carry nil; the codec maps count 0 back to nil
		}},
		{"noise probability out of range", local, func(t *testing.T, x *backend.Executable) {
			x.Noise = &backend.NoisePlan{Points: []backend.NoisePoint{{
				Gate: x.Units[0].Hi - 1, Qubit: 0,
				Ch: circuit.Channel{Kind: circuit.FlipX, P: 1.5},
			}}}
		}},
		{"overlapping units", local, func(t *testing.T, x *backend.Executable) {
			if len(x.Units) < 2 {
				t.Skip("workload compiled to a single unit")
			}
			x.Units[1].Lo--
		}},
		{"missing schedule", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Sched = nil
		}},
		{"remap accounting drift", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Sched.Remaps++
			x.Units[i].Sched.Rounds++
			x.PlannedRemaps++
			x.PlannedRounds++
		}},
		// Emulation off so the QFT stays at gate level and the schedule
		// actually plans remaps to corrupt.
		{"non-bijective placement", backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3}, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			s := x.Units[i].Sched
			for si := range s.Steps {
				if r := s.Steps[si].Remap; r != nil {
					r[0] = r[1]
					return
				}
			}
			t.Skip("schedule plans no remaps for this workload")
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := verifyWorkload(t, tc.target)
			tc.mutate(t, x)
			if err := backend.VerifyExecutable(x); err == nil {
				t.Fatal("verifier accepted a corrupt in-memory executable")
			}
		})
	}

	if err := backend.VerifyExecutable(nil); err == nil {
		t.Fatal("verifier accepted a nil executable")
	}
}
