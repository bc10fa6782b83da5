package backend

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// NoisePoint is one resolved noise insertion of a compiled executable:
// channel Ch strikes qubit Qubit immediately after gate Gate executes.
type NoisePoint struct {
	Gate  int
	Qubit uint
	Ch    circuit.Channel
}

// Hard reports whether the point's branch depends on the state it
// strikes. The damping channels are hard: their jump probability is
// γ·P(q=1) and their no-jump branch applies the non-unitary K₀ every
// time, so the state must be exactly "after gate Gate" when the point is
// reached and the point closes its unit. The Pauli channels (x, y, z,
// depolarizing) are soft: the branch is a function of the drawn variate
// alone, so whether the point fires is known before its unit runs and it
// may sit anywhere inside a gate unit.
func (pt NoisePoint) Hard() bool {
	return pt.Ch.Kind == circuit.AmplitudeDamping || pt.Ch.Kind == circuit.PhaseDamping
}

// NoisePlan is the compiled form of a circuit's NoiseModel: every
// insertion point expanded (global channels unrolled over each gate's
// support, per-gate channels carried verbatim) and sorted by gate index.
//
// Compile aligns the unit schedule with the plan by two rules. A hard
// point's gate is the last gate of its unit, always. Soft points force
// no boundary by themselves; a gate unit that holds them in its interior
// (before its last gate) is one the trajectory runner runs whole when
// none of them fires and replays gate by gate when one does, so the
// compiler closes an open gate unit where the expected cost of that
// replay reaches one sweep of the state — the price of a boundary. With
// S the sum of the fire probabilities of the soft points on the k gates
// a unit already holds, the unit closes before the gate that would make
// S·(k+1) >= 1: P(some interior point fires) <= S and a replay costs
// about one sweep per gate held. Units are ~24 gates at depolarizing
// 0.001 with 1.8 points per gate, 7 at 0.01, one gate as p -> 1, whole
// segments at p = 0; a damping-only plan has S = 0 throughout and cuts
// only at its points. Recognised ops carry no gates to replay, so an op
// with any point before its last gate returns to gate level. Units cut
// more often than the rule asks still run unchanged.
//
// The expansion order is part of the plan's contract: trajectories draw
// one uniform variate per point in plan order, so two executables with
// equal plans replay identical noise realisations from equal seeds —
// wherever their unit boundaries fall.
type NoisePlan struct {
	Points []NoisePoint
}

// resolveNoise expands c's noise model into a sorted insertion-point
// plan, or nil for an ideal circuit. Order within one gate: the model's
// per-gate attachments first (attachment order), then each global channel
// over the gate's qubits (targets before controls, as Qubits() yields).
func resolveNoise(c *circuit.Circuit) *NoisePlan {
	m := c.Noise
	if m.Empty() {
		return nil
	}
	plan := &NoisePlan{}
	pg := m.PerGate // sorted by gate index
	for g := range c.Gates {
		for len(pg) > 0 && pg[0].Gate == g {
			plan.Points = append(plan.Points, NoisePoint{Gate: g, Qubit: pg[0].Qubit, Ch: pg[0].Ch})
			pg = pg[1:]
		}
		for _, ch := range m.Global {
			for _, q := range c.Gates[g].Qubits() {
				plan.Points = append(plan.Points, NoisePoint{Gate: g, Qubit: q, Ch: ch})
			}
		}
	}
	return plan
}

// splitSegment yields the gate units of the gate segment [lo, hi) in
// order, calling fn(unitLo, unitHi) for each: a boundary after every gate
// that carries a hard point, and one before the gate at which the open
// unit's expected replay cost would reach one sweep (see NoisePlan). A
// nil plan yields the segment whole.
func (p *NoisePlan) splitSegment(lo, hi int, fn func(lo, hi int) error) error {
	pts := p.PointsIn(lo, hi)
	start, fire := lo, 0.0 // fire: summed fire probability of the soft points on gates [start, g)
	for g := lo; g < hi; g++ {
		if g > start && fire*float64(g+1-start) >= 1 {
			if err := fn(start, g); err != nil {
				return err
			}
			start, fire = g, 0
		}
		hard := false
		for ; len(pts) > 0 && pts[0].Gate == g; pts = pts[1:] {
			if pts[0].Hard() {
				hard = true
			} else {
				fire += pts[0].Ch.P
			}
		}
		if hard {
			if err := fn(start, g+1); err != nil {
				return err
			}
			start, fire = g+1, 0
		}
	}
	if start < hi {
		return fn(start, hi)
	}
	return nil
}

// PointsIn returns the slice of plan points whose gate index falls in
// [lo, hi). Points are sorted by gate, so this is two binary searches.
func (p *NoisePlan) PointsIn(lo, hi int) []NoisePoint {
	if p == nil {
		return nil
	}
	a := sort.Search(len(p.Points), func(i int) bool { return p.Points[i].Gate >= lo })
	b := sort.Search(len(p.Points), func(i int) bool { return p.Points[i].Gate >= hi })
	return p.Points[a:b]
}

// verifyNoisePlan checks the executable's noise plan against the register
// and its unit schedule: channel parameters in [0,1] with known kinds,
// points sorted by gate with in-range supports, every hard point on the
// last gate of its unit, and no point of either class strictly inside a
// recognised op (the invariants the trajectory runner replays by; a soft
// point inside a gate unit is legal — the unit carries the gates a
// struck replay needs).
func verifyNoisePlan(x *Executable) error {
	p := x.Noise
	if p == nil {
		return nil
	}
	if len(p.Points) == 0 {
		return fmt.Errorf("backend: verify: empty noise plan (ideal executables carry nil)")
	}
	lastGate := -1
	for i, pt := range p.Points {
		if err := pt.Ch.Validate(); err != nil {
			return fmt.Errorf("backend: verify: noise point %d: %w", i, err)
		}
		if pt.Gate < 0 || pt.Gate >= x.NumGates {
			return fmt.Errorf("backend: verify: noise point %d strikes after gate %d of %d", i, pt.Gate, x.NumGates)
		}
		if pt.Qubit >= x.NumQubits {
			return fmt.Errorf("backend: verify: noise point %d strikes qubit %d of a %d-qubit register", i, pt.Qubit, x.NumQubits)
		}
		if pt.Gate < lastGate {
			return fmt.Errorf("backend: verify: noise points out of order at %d (gate %d after %d)", i, pt.Gate, lastGate)
		}
		lastGate = pt.Gate
	}
	ui := 0
	for _, pt := range p.Points {
		for ui < len(x.Units) && x.Units[ui].Hi <= pt.Gate {
			ui++
		}
		if ui >= len(x.Units) {
			return fmt.Errorf("backend: verify: noise point after gate %d lies outside every unit", pt.Gate)
		}
		if u := &x.Units[ui]; pt.Gate != u.Hi-1 {
			if pt.Hard() {
				return fmt.Errorf("backend: verify: %s point after gate %d is not aligned to a unit boundary", pt.Ch.Kind, pt.Gate)
			}
			if u.Op != nil {
				return fmt.Errorf("backend: verify: noise point after gate %d falls inside the recognised op [%d,%d)", pt.Gate, u.Lo, u.Hi)
			}
		}
	}
	return nil
}
