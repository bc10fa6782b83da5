package backend

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/bitops"
	"repro/internal/cluster"
)

// Structural verification of Executables. The codec's crc32 catches bit
// rot; Decode catches malformed framing. What neither catches is a
// *semantically* corrupt artifact whose bytes are internally well-formed
// — a non-unitary gate matrix, a diagonal table with decayed moduli, an
// op whose gate range or substrate disagrees with its unit, or a
// perfectly valid artifact sitting under the wrong cache key.
// VerifyExecutable closes that gap: it re-derives every invariant the
// execution engines assume from the artifact's own content, so a
// corrupt-but-crc-valid .qexe is rejected before a serving cache pins a
// 2^n-amplitude session on it. Fusion plans and communication schedules
// are never on the wire — Decode rebuilds them through addGateUnit (see
// codec.go) — so the plan and schedule checks guard the lowering's own
// output and hand-built executables, not an artifact's bytes.

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
// substrate their lowering actually names; fusion plans covering their
// unit's gates and cluster schedules with bijective placement maps and
// internally consistent round accounting (both built by the lowering,
// never decoded); and summary counters that match a recount. It returns
// nil exactly when the artifact is safe to execute.
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
	// Compile stamps every executable with its fingerprint; a scrambled or
	// missing key would silently shadow the wrong cache entry.
	if !validFingerprint(x.SourceKey) {
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

	prefix := x.prefix()
	if prefix != nil && (prefix.End < 1 || prefix.End > len(x.Units)) {
		return fmt.Errorf("backend: verify: product prefix span ends at unit %d, outside the executable's %d units", prefix.End, len(x.Units))
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
		if err := verifyGateUnit(x, i, u, prefix != nil && i > 0 && i < prefix.End); err != nil {
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
	if prefix != nil {
		return verifyPrefix(x, prefix)
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
	if x.SourceKey != key {
		return fmt.Errorf("backend: verify: artifact was compiled under key %.12s…, served as %.12s…", x.SourceKey, key)
	}
	return nil
}

// verifyGateUnit checks one gate segment: gate count vs range, supports
// in-register with pairwise-distinct qubits, unitary matrices, and the
// derived plans the target kind requires — none on a unit inside a
// product prefix's span past its first (spanned), whose own lowering is
// planned on first use.
func verifyGateUnit(x *Executable, i int, u *Unit, spanned bool) error {
	if len(u.Gates) != u.Hi-u.Lo {
		return fmt.Errorf("backend: verify: unit %d holds %d gates for range [%d,%d)", i, len(u.Gates), u.Lo, u.Hi)
	}
	for j, g := range u.Gates {
		if err := checkGateQubits(g, x.NumQubits); err != nil {
			return fmt.Errorf("backend: verify: unit %d gate %d: %w", i, j, err)
		}
		if !g.Matrix.IsUnitary(verifyUnitaryEps) {
			return fmt.Errorf("backend: verify: unit %d gate %d (%s) matrix is not unitary", i, j, g.Name)
		}
	}
	if x.Target.Kind == Generic {
		if u.Fused != nil || u.Sched != nil || u.Prefix != nil {
			return fmt.Errorf("backend: verify: unit %d carries derived plans on a structure-blind %s target", i, x.Target.Kind)
		}
		return nil
	}
	if u.Prefix != nil && (i != 0 || x.Noise != nil) {
		return fmt.Errorf("backend: verify: unit %d carries a product prefix; only the first unit of a noise-free executable may", i)
	}
	if spanned {
		if u.Fused != nil || u.Sched != nil {
			return fmt.Errorf("backend: verify: unit %d lies inside the product prefix's span and carries a plan of its own", i)
		}
		return nil
	}
	rest := len(u.Gates)
	if u.Prefix != nil {
		rest = len(u.Prefix.Rest)
	}
	if u.Fused == nil {
		return fmt.Errorf("backend: verify: unit %d lacks a fusion plan for a %s target", i, x.Target.Kind)
	}
	planned := 0
	for j := range u.Fused.Blocks {
		planned += len(u.Fused.Blocks[j].Gates)
	}
	if planned != rest {
		return fmt.Errorf("backend: verify: unit %d fusion plan covers %d of %d gates", i, planned, rest)
	}
	if u.Sched == nil {
		return fmt.Errorf("backend: verify: unit %d lacks a communication schedule for a %s target", i, x.Target.Kind)
	}
	return verifySchedule(x, i, u.Sched, rest)
}

// verifySchedule checks a cluster unit's communication plan: the shape it
// was built for, bijective placement maps, and round/gate accounting that
// matches a recount of its own steps.
func verifySchedule(x *Executable, i int, s *cluster.Schedule, gateCount int) error {
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
	if s.Gates != gateCount {
		return fmt.Errorf("backend: verify: unit %d schedule covers %d gates, its run holds %d", i, s.Gates, gateCount)
	}
	return nil
}

// verifyPrefix checks the product prefix on unit 0, once every unit has
// passed its own checks: its clusters are disjoint, ascending, at most
// prefixCap wide and in unit-norm states that the fill covers; its span
// [0, End) lies within the unit list; walking the span in source order,
// every gate is either the next prefix gate (Index) or the next remainder
// gate (Rest), so the remainder is exactly the span's other gates in
// source order; and each prefix gate and each op of the span — all of
// them absorbed, a diagonal that splits by each of its factors
// (recognize.Op.Factors, derived again from the op) — lies inside one
// cluster and shares no qubit with an earlier remainder gate, the
// condition that lets it run first. The
// spanned units' own plans are built on first use (Prefix.unitSched), from
// the same gates.
func verifyPrefix(x *Executable, p *Prefix) error {
	n := x.NumQubits
	if len(p.Index) == 0 || len(p.Clusters) == 0 || len(p.Vectors) != len(p.Clusters) || p.Fill == nil {
		return fmt.Errorf("backend: verify: product prefix is incomplete (%d gates, %d clusters, %d vectors)",
			len(p.Index), len(p.Clusters), len(p.Vectors))
	}
	var owner [64]int // 1 + the cluster holding each qubit, 0 for none
	var covered uint64
	for ci, qs := range p.Clusters {
		if len(qs) == 0 || len(qs) > prefixCap(n) {
			return fmt.Errorf("backend: verify: prefix cluster %d is %d qubits wide, at most %d on %d qubits",
				ci, len(qs), prefixCap(n), n)
		}
		for t, q := range qs {
			if q >= n || covered&(1<<q) != 0 || (t > 0 && q <= qs[t-1]) {
				return fmt.Errorf("backend: verify: prefix cluster %d qubits %v are not ascending, in range and disjoint from the others", ci, qs)
			}
			covered |= 1 << q
			owner[q] = ci + 1
		}
		v := p.Vectors[ci]
		if len(v) != 1<<len(qs) {
			return fmt.Errorf("backend: verify: prefix cluster %d holds %d amplitudes for %d qubits", ci, len(v), len(qs))
		}
		var norm float64
		for _, a := range v {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		if !(math.Abs(norm-1) <= verifyUnitaryEps) {
			return fmt.Errorf("backend: verify: prefix cluster %d state has norm² %g", ci, norm)
		}
	}
	if p.Fill.NumQubits() != n || p.Fill.Qubits() != uint(bits.OnesCount64(covered)) {
		return fmt.Errorf("backend: verify: prefix fill does not lay out its clusters")
	}
	span := x.Units[:p.End]
	hi := span[len(span)-1].Hi
	for _, list := range []struct {
		name string
		at   []int
	}{{"prefix index", p.Index}, {"remainder", p.Rest}} {
		for k, j := range list.at {
			if j < 0 || j >= hi || (k > 0 && j <= list.at[k-1]) {
				return fmt.Errorf("backend: verify: %s is not an ascending list of the span's %d gates", list.name, hi)
			}
		}
	}
	// inside reports whether the qubits of mask lie inside one cluster.
	inside := func(mask uint64) bool {
		c := owner[bits.TrailingZeros64(mask)]
		for m := mask; m != 0; m &= m - 1 {
			if owner[bits.TrailingZeros64(m)] != c {
				return false
			}
		}
		return c != 0
	}
	var closed uint64
	k, r := 0, 0
	for i := range span {
		u := &span[i]
		if u.Op != nil {
			fs := u.Op.Factors()
			for _, f := range fs {
				mask := supportMask(f)
				switch {
				case len(fs) == 1 && mask&closed != 0:
					return fmt.Errorf("backend: verify: unit %d op in the prefix's span shares a qubit with an earlier remainder gate", i)
				case len(fs) == 1 && (mask == 0 || !inside(mask)):
					return fmt.Errorf("backend: verify: unit %d op in the prefix's span does not lie inside one cluster", i)
				case mask&closed != 0:
					return fmt.Errorf("backend: verify: unit %d op's factor on qubits %v holds a qubit an earlier remainder gate closed", i, f.Support())
				case !inside(mask):
					return fmt.Errorf("backend: verify: unit %d op's factor on qubits %v straddles prefix clusters", i, f.Support())
				}
			}
			continue
		}
		for j := range u.Gates {
			g := &u.Gates[j]
			mask := bitops.ControlMask(g.Controls) | 1<<g.Target
			switch s := u.Lo + j; {
			case k < len(p.Index) && p.Index[k] == s:
				k++
				if mask&closed != 0 {
					return fmt.Errorf("backend: verify: prefix gate %d shares a qubit with an earlier remainder gate", s)
				}
				if !inside(mask) {
					return fmt.Errorf("backend: verify: prefix gate %d does not lie inside one cluster", s)
				}
			case r < len(p.Rest) && p.Rest[r] == s:
				r++
				closed |= mask
			default:
				return fmt.Errorf("backend: verify: gate %d of the prefix's span is in neither the prefix nor, in source order, the remainder", s)
			}
		}
	}
	if k != len(p.Index) || r != len(p.Rest) {
		return fmt.Errorf("backend: verify: prefix and remainder list %d and %d gates the span does not hold", len(p.Index)-k, len(p.Rest)-r)
	}
	if len(p.own) != p.End {
		return fmt.Errorf("backend: verify: product prefix holds %d unit lowerings for a span of %d units", len(p.own), p.End)
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
	if u.Prefix != nil {
		return fmt.Errorf("backend: verify: unit %d is a recognised op and carries a product prefix", i)
	}
	if op.Lo != u.Lo || op.Hi != u.Hi {
		return fmt.Errorf("backend: verify: unit %d covers [%d,%d) but its op claims [%d,%d)", i, u.Lo, u.Hi, op.Lo, op.Hi)
	}
	if x.Target.Kind == Generic {
		return fmt.Errorf("backend: verify: unit %d is a recognised op on a structure-blind %s target", i, x.Target.Kind)
	}
	sub, ok := cluster.Lowerable(op, x.NumQubits, x.Target.LocalQubits(), x.Target.Nodes)
	if !ok {
		return fmt.Errorf("backend: verify: unit %d op %s has no distributed lowering for this target", i, op.Kind())
	}
	if sub != u.Substrate {
		return fmt.Errorf("backend: verify: unit %d substrate %q, lowering names %q", i, u.Substrate, sub)
	}
	// A phase flip is ±1 by construction; a diagonal run carries its table.
	// The test is written so that a NaN entry fails it.
	if d, _, ok := op.DiagTable(); ok {
		for j, v := range d {
			if m := cmplx.Abs(v); !(math.Abs(m-1) <= verifyModulusEps) {
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
