package backend

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cluster"
)

// Structural verification of Executables. The codec's crc32 catches bit
// rot; Decode catches malformed framing. What neither catches is a
// *semantically* corrupt artifact whose bytes are internally well-formed
// — a non-unitary gate matrix, a diagonal table with decayed moduli, a
// schedule whose placement map drops a qubit, or a perfectly valid
// artifact sitting under the wrong cache key. VerifyExecutable closes
// that gap: it re-derives every invariant the execution engines assume
// from the artifact's own content, so a corrupt-but-crc-valid .qexe is
// rejected before a serving cache pins a 2^n-amplitude session on it.

const (
	// verifyUnitaryEps bounds ‖U·U†−I‖∞ per gate matrix. Looser than the
	// codec's float64 round trip (exact), tighter than anything a real
	// corruption produces.
	verifyUnitaryEps = 1e-9
	// verifyModulusEps bounds | |d_i| − 1 | per diagonal table entry.
	verifyModulusEps = 1e-6
	// verifyMaxWorkers is the sanity ceiling on the target's worker cap —
	// far above any real machine, low enough to catch a scrambled field.
	verifyMaxWorkers = 1 << 20
)

// VerifyExecutable checks the structural invariants of a compiled (or
// decoded) executable: units sorted, disjoint and contiguous over
// [0, NumGates) with in-range supports; gate matrices unitary; recognised
// op payloads shape-valid with unit-modulus diagonal tables and the
// substrate their lowering actually names; cluster schedules with
// bijective placement maps and internally consistent round accounting;
// and summary counters that match a recount. It returns nil exactly when
// the artifact is safe to execute.
func VerifyExecutable(x *Executable) error {
	if x == nil {
		return fmt.Errorf("backend: verify: nil executable")
	}
	if x.NumQubits == 0 || x.NumQubits > 64 {
		return fmt.Errorf("backend: verify: register width %d out of range", x.NumQubits)
	}
	if x.NumGates < 0 {
		return fmt.Errorf("backend: verify: negative gate count %d", x.NumGates)
	}
	if x.Target.Auto {
		return fmt.Errorf("backend: verify: target is an unresolved auto request (Compile resolves before emitting units)")
	}
	nt, err := x.Target.normalize(x.NumQubits)
	if err != nil {
		return fmt.Errorf("backend: verify: target: %w", err)
	}
	if nt != x.Target {
		return fmt.Errorf("backend: verify: target is not in normal form")
	}
	if x.Target.Workers < 0 || x.Target.Workers > verifyMaxWorkers {
		return fmt.Errorf("backend: verify: worker cap %d implausible", x.Target.Workers)
	}
	// Empty is legal — v2 artifacts predate the SourceKey section and
	// decode without one. Anything present must be a well-formed
	// fingerprint; a scrambled key would silently shadow the wrong cache
	// entry.
	if x.SourceKey != "" && !validFingerprint(x.SourceKey) {
		return fmt.Errorf("backend: verify: source key %q is not a sha256 fingerprint", x.SourceKey)
	}
	if err := verifyNoisePlan(x); err != nil {
		return err
	}
	for i, s := range x.Skipped {
		if s.Lo < 0 || s.Hi < s.Lo || s.Hi > x.NumGates {
			return fmt.Errorf("backend: verify: skipped region %d covers [%d,%d) of %d gates", i, s.Lo, s.Hi, x.NumGates)
		}
	}

	cursor := 0
	emulated, fusedBlocks, remaps, rounds := 0, 0, 0, 0
	for i := range x.Units {
		u := &x.Units[i]
		if u.Lo != cursor || u.Hi <= u.Lo || u.Hi > x.NumGates {
			return fmt.Errorf("backend: verify: unit %d covers [%d,%d), expected to start at %d of %d (units must be sorted, disjoint, non-empty and contiguous)",
				i, u.Lo, u.Hi, cursor, x.NumGates)
		}
		cursor = u.Hi
		if u.Op != nil {
			if err := verifyOpUnit(x, i, u); err != nil {
				return err
			}
			emulated += u.Hi - u.Lo
			continue
		}
		if err := verifyGateUnit(x, i, u); err != nil {
			return err
		}
		if u.Fused != nil {
			for j := range u.Fused.Blocks {
				if u.Fused.Blocks[j].Fused() {
					fusedBlocks++
				}
			}
		}
		if u.Sched != nil {
			remaps += u.Sched.Remaps
			rounds += u.Sched.Rounds
		}
	}
	if cursor != x.NumGates {
		return fmt.Errorf("backend: verify: units cover %d of %d gates", cursor, x.NumGates)
	}
	if emulated != x.EmulatedGates || fusedBlocks != x.FusedBlocks ||
		remaps != x.PlannedRemaps || rounds != x.PlannedRounds {
		return fmt.Errorf("backend: verify: summary counters (emulated %d, fused %d, remaps %d, rounds %d) disagree with recount (%d, %d, %d, %d)",
			x.EmulatedGates, x.FusedBlocks, x.PlannedRemaps, x.PlannedRounds,
			emulated, fusedBlocks, remaps, rounds)
	}
	return nil
}

// VerifyExecutableKey is VerifyExecutable plus provenance: the artifact's
// embedded SourceKey must equal the cache key it is being served under.
// This is the check crc32 fundamentally cannot make — a renamed or
// swapped .qexe file is pristine bytes under the wrong name.
func VerifyExecutableKey(x *Executable, key string) error {
	if err := VerifyExecutable(x); err != nil {
		return err
	}
	if x.SourceKey == "" {
		// A v2 artifact carries no embedded key; adopt the one it is being
		// admitted under so re-encoded copies pin their provenance.
		x.SourceKey = key
		return nil
	}
	if x.SourceKey != key {
		return fmt.Errorf("backend: verify: artifact was compiled under key %.12s…, served as %.12s…", x.SourceKey, key)
	}
	return nil
}

// verifyGateUnit checks one gate segment: gate count vs range, supports
// in-register with pairwise-distinct qubits, unitary matrices, and the
// derived plans the target kind requires.
func verifyGateUnit(x *Executable, i int, u *Unit) error {
	if len(u.Gates) != u.Hi-u.Lo {
		return fmt.Errorf("backend: verify: unit %d holds %d gates for range [%d,%d)", i, len(u.Gates), u.Lo, u.Hi)
	}
	for j, g := range u.Gates {
		if g.MaxQubit() >= x.NumQubits {
			return fmt.Errorf("backend: verify: unit %d gate %d (%s) touches qubit %d of a %d-qubit register",
				i, j, g.Name, g.MaxQubit(), x.NumQubits)
		}
		var seen uint64
		for _, q := range g.Qubits() {
			if seen&(1<<q) != 0 {
				return fmt.Errorf("backend: verify: unit %d gate %d (%s) repeats qubit %d", i, j, g.Name, q)
			}
			seen |= 1 << q
		}
		if !g.Matrix.IsUnitary(verifyUnitaryEps) {
			return fmt.Errorf("backend: verify: unit %d gate %d (%s) matrix is not unitary", i, j, g.Name)
		}
	}
	switch x.Target.Kind {
	case Fused, Cluster:
		if u.Fused == nil {
			return fmt.Errorf("backend: verify: unit %d lacks a fusion plan for a %s target", i, x.Target.Kind)
		}
		planned := 0
		for j := range u.Fused.Blocks {
			planned += len(u.Fused.Blocks[j].Gates)
		}
		if planned != len(u.Gates) {
			return fmt.Errorf("backend: verify: unit %d fusion plan covers %d of %d gates", i, planned, len(u.Gates))
		}
		if x.Target.Kind == Cluster {
			if u.Sched == nil {
				return fmt.Errorf("backend: verify: unit %d lacks a communication schedule for a cluster target", i)
			}
			return verifySchedule(x, i, u)
		}
	case Generic, Sparse:
		if u.Fused != nil || u.Sched != nil {
			return fmt.Errorf("backend: verify: unit %d carries derived plans on a structure-blind %s target", i, x.Target.Kind)
		}
	}
	return nil
}

// verifySchedule checks a cluster unit's communication plan: the shape it
// was built for, bijective placement maps, and round/gate accounting that
// matches a recount of its own steps.
func verifySchedule(x *Executable, i int, u *Unit) error {
	s := u.Sched
	if s.NumQubits != x.NumQubits || s.LocalQubits != x.Target.LocalQubits() {
		return fmt.Errorf("backend: verify: unit %d schedule built for shape (%d,%d), target is (%d,%d)",
			i, s.NumQubits, s.LocalQubits, x.NumQubits, x.Target.LocalQubits())
	}
	remapCount := 0
	for si := range s.Steps {
		st := &s.Steps[si]
		if st.Remap != nil {
			remapCount++
			if err := verifyPlacement(st.Remap, x.NumQubits); err != nil {
				return fmt.Errorf("backend: verify: unit %d schedule step %d: %w", i, si, err)
			}
		}
	}
	if s.Remaps != remapCount {
		return fmt.Errorf("backend: verify: unit %d schedule counts %d remaps, steps hold %d", i, s.Remaps, remapCount)
	}
	if s.ExchangeGates < 0 || s.Rounds != s.Remaps+s.ExchangeGates {
		return fmt.Errorf("backend: verify: unit %d schedule round accounting inconsistent (%d rounds != %d remaps + %d exchanges)",
			i, s.Rounds, s.Remaps, s.ExchangeGates)
	}
	if s.Gates != len(u.Gates) {
		return fmt.Errorf("backend: verify: unit %d schedule covers %d gates, unit holds %d", i, s.Gates, len(u.Gates))
	}
	return nil
}

// verifyPlacement requires a logical→physical map to be a permutation of
// [0, n): total, in-range and injective — anything less silently aliases
// or drops qubits during an all-to-all remap.
func verifyPlacement(placement []uint, n uint) error {
	if uint(len(placement)) != n {
		return fmt.Errorf("placement maps %d of %d qubits", len(placement), n)
	}
	var seen uint64
	for logical, physical := range placement {
		if physical >= n {
			return fmt.Errorf("placement sends qubit %d to %d (register width %d)", logical, physical, n)
		}
		if seen&(1<<physical) != 0 {
			return fmt.Errorf("placement is not bijective: physical slot %d assigned twice", physical)
		}
		seen |= 1 << physical
	}
	return nil
}

// verifyOpUnit checks one recognised-shortcut unit: payload shape (the
// decode-time validation re-run on the in-memory op), range agreement
// with the unit, a substrate the target's lowering actually produces, and
// unit-modulus diagonal tables.
func verifyOpUnit(x *Executable, i int, u *Unit) error {
	op := u.Op
	if err := op.Validate(x.NumQubits); err != nil {
		return fmt.Errorf("backend: verify: unit %d op payload: %w", i, err)
	}
	if op.Lo != u.Lo || op.Hi != u.Hi {
		return fmt.Errorf("backend: verify: unit %d covers [%d,%d) but its op claims [%d,%d)", i, u.Lo, u.Hi, op.Lo, op.Hi)
	}
	if x.Target.Kind == Cluster {
		sub, ok := cluster.Lowerable(op, x.NumQubits, x.Target.LocalQubits(), x.Target.Nodes)
		if !ok {
			return fmt.Errorf("backend: verify: unit %d op %s has no distributed lowering for this target", i, op.Kind())
		}
		if sub != u.Substrate {
			return fmt.Errorf("backend: verify: unit %d substrate %q, lowering names %q", i, u.Substrate, sub)
		}
	} else if u.Substrate != substrateLocal {
		return fmt.Errorf("backend: verify: unit %d substrate %q on a single-node target", i, u.Substrate)
	}
	// A phase flip is ±1 by construction; a diagonal run carries its table.
	if d, _, ok := op.DiagTable(); ok {
		for j, v := range d {
			if m := cmplx.Abs(v); math.Abs(m-1) > verifyModulusEps {
				return fmt.Errorf("backend: verify: unit %d diagonal entry %d has modulus %g (phase tables must be unit modulus)", i, j, m)
			}
		}
	}
	return nil
}

// validFingerprint reports whether s looks like a Fingerprint: 64
// lowercase hex characters of sha256.
func validFingerprint(s string) bool {
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
