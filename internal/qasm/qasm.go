package qasm

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// SourceMap ties a parsed circuit back to the text it came from, so
// diagnostics (internal/circvet, cmd/qemu-vet) can report file:line
// positions instead of bare gate indices. GateLine[i] is the source line
// of gate i; RegionLine[j] parallels circuit.Regions (qasm regions are
// sequential and non-nested, so Annotate preserves their order).
type SourceMap struct {
	QubitsLine int
	GateLine   []int
	RegionLine []int
	// GlobalNoiseLine parallels circuit.Noise.Global; GateNoiseLine
	// parallels circuit.Noise.PerGate (the parser attaches noise to the
	// most recent gate, so per-gate entries are appended already sorted).
	GlobalNoiseLine []int
	GateNoiseLine   []int
}

// Line resolves a gate index to its source line, falling back to the
// qubits directive for circuit-level positions (index < 0 or out of
// range).
func (m *SourceMap) Line(gate int) int {
	if m == nil {
		return 0
	}
	if gate >= 0 && gate < len(m.GateLine) {
		return m.GateLine[gate]
	}
	return m.QubitsLine
}

// NoiseLine resolves an index into circuit.Noise.PerGate to the source
// line of the noise directive that created it, falling back like Line.
func (m *SourceMap) NoiseLine(i int) int {
	if m == nil {
		return 0
	}
	if i >= 0 && i < len(m.GateNoiseLine) {
		return m.GateNoiseLine[i]
	}
	return m.QubitsLine
}

// Parse reads a circuit description from r. Malformed input of any shape
// — missing arguments, out-of-range or duplicated qubits, angles with
// stacked signs — is reported as a `qasm: line N:` error; Parse never
// panics on bad input.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	c, _, err := ParseSource(r)
	return c, err
}

// ParseSource is Parse plus the SourceMap of the accepted input.
func ParseSource(r io.Reader) (*circuit.Circuit, *SourceMap, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("qasm: %v", err)
	}
	return parseText(string(data))
}

// appendFields is strings.Fields appending into dst, so a line's tokens
// land in the caller's scratch instead of a fresh slice.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// parseText parses a whole source text. It walks the lines of src in
// place — tokens are substrings, the token list and the per-line gate
// list are reused scratch — and reserves the gate list from the line
// count, so parsing allocates little beyond the circuit it returns.
func parseText(src string) (*circuit.Circuit, *SourceMap, error) {
	sm := &SourceMap{}
	var circ *circuit.Circuit
	// A gate takes a line of at least four bytes ("h 0\n"); the second
	// bound keeps a text of bare newlines from reserving 100x its size.
	maxGates := min(strings.Count(src, "\n")+1, len(src)/4+1)
	var fieldBuf [8]string
	var gateBuf [3]gates.Gate
	lineNo := 0
	type openRegion struct {
		name string
		args []uint64
		lo   int
		line int
	}
	var region *openRegion
	for src != "" {
		lineNo++
		var line string
		line, src, _ = strings.Cut(src, "\n")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		// ToLower returns its argument when there is nothing to lower.
		fields := appendFields(fieldBuf[:0], strings.ToLower(line))
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "qubits" {
			if circ != nil {
				return nil, nil, fmt.Errorf("qasm: line %d: duplicate qubits directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("qasm: line %d: qubits directive wants exactly one count", lineNo)
			}
			n, err := strconv.ParseUint(fields[1], 10, 8)
			if err != nil || n == 0 {
				return nil, nil, fmt.Errorf("qasm: line %d: bad qubit count %q", lineNo, fields[1])
			}
			circ = circuit.New(uint(n))
			circ.Gates = make([]gates.Gate, 0, maxGates)
			sm.GateLine = make([]int, 0, maxGates)
			sm.QubitsLine = lineNo
			continue
		}
		if circ == nil {
			return nil, nil, fmt.Errorf("qasm: line %d: gate before qubits directive", lineNo)
		}
		// Region markers: "region NAME arg..." / "endregion" annotate the
		// enclosed gates as a named subroutine for the emulation
		// dispatcher (see internal/recognize for the vocabulary).
		if fields[0] == "region" {
			if region != nil {
				return nil, nil, fmt.Errorf("qasm: line %d: nested region (previous opened at line %d)",
					lineNo, region.line)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("qasm: line %d: region without a name", lineNo)
			}
			args := make([]uint64, 0, len(fields)-2)
			for _, f := range fields[2:] {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("qasm: line %d: bad region argument %q", lineNo, f)
				}
				args = append(args, v)
			}
			region = &openRegion{name: fields[1], args: args, lo: circ.Len(), line: lineNo}
			continue
		}
		if fields[0] == "endregion" {
			if len(fields) != 1 {
				return nil, nil, fmt.Errorf("qasm: line %d: endregion takes no arguments", lineNo)
			}
			if region == nil {
				return nil, nil, fmt.Errorf("qasm: line %d: endregion without region", lineNo)
			}
			circ.Annotate(circuit.Region{Name: region.name, Args: region.args,
				Lo: region.lo, Hi: circ.Len()})
			sm.RegionLine = append(sm.RegionLine, region.line)
			region = nil
			continue
		}
		// Barriers are scheduling hints for hardware compilers; the
		// simulator's schedulers already honour program order, so the line
		// is accepted and ignored. Any qubit arguments are still validated
		// (with the line number) so a typo'd barrier is not silently
		// swallowed. Write never emits barriers, and dropping them leaves
		// the parsed circuit unchanged, so Write∘Parse round-trips inputs
		// containing them.
		if fields[0] == "barrier" {
			for _, f := range fields[1:] {
				if _, err := parseQubit(f, circ.NumQubits); err != nil {
					return nil, nil, fmt.Errorf("qasm: line %d: %v", lineNo, err)
				}
			}
			continue
		}
		// Noise directive: "noise KIND P" attaches a global after-each-gate
		// channel; "noise KIND P q1 [q2 ...]" attaches the channel to the
		// listed qubits immediately after the most recent gate.
		if fields[0] == "noise" {
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("qasm: line %d: noise directive wants a channel and a probability", lineNo)
			}
			kind, ok := circuit.ChannelKindByName(fields[1])
			if !ok {
				return nil, nil, fmt.Errorf("qasm: line %d: unknown noise channel %q", lineNo, fields[1])
			}
			p, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, nil, fmt.Errorf("qasm: line %d: noise probability %q outside [0,1]", lineNo, fields[2])
			}
			ch := circuit.Channel{Kind: kind, P: p}
			if len(fields) == 3 {
				circ.SetGlobalNoise(ch)
				sm.GlobalNoiseLine = append(sm.GlobalNoiseLine, lineNo)
				continue
			}
			if circ.Len() == 0 {
				return nil, nil, fmt.Errorf("qasm: line %d: per-gate noise before any gate", lineNo)
			}
			for _, f := range fields[3:] {
				q, err := parseQubit(f, circ.NumQubits)
				if err != nil {
					return nil, nil, fmt.Errorf("qasm: line %d: %v", lineNo, err)
				}
				circ.AttachNoise(circ.Len()-1, q, ch)
				sm.GateNoiseLine = append(sm.GateNoiseLine, lineNo)
			}
			continue
		}
		// Optional control prefix: "ctrl c1 c2 ... : gate ...".
		var extraControls []uint
		if fields[0] == "ctrl" {
			sep := -1
			for i, f := range fields {
				if f == ":" {
					sep = i
					break
				}
			}
			if sep < 2 {
				return nil, nil, fmt.Errorf("qasm: line %d: malformed ctrl prefix", lineNo)
			}
			for _, f := range fields[1:sep] {
				q, err := parseQubit(f, circ.NumQubits)
				if err != nil {
					return nil, nil, fmt.Errorf("qasm: line %d: %v", lineNo, err)
				}
				extraControls = append(extraControls, q)
			}
			fields = fields[sep+1:]
			if len(fields) == 0 {
				return nil, nil, fmt.Errorf("qasm: line %d: ctrl prefix without gate", lineNo)
			}
		}
		gs, err := parseGate(gateBuf[:0], fields, circ.NumQubits)
		if err != nil {
			return nil, nil, fmt.Errorf("qasm: line %d: %v", lineNo, err)
		}
		for _, full := range gs {
			if len(extraControls) > 0 {
				full = full.WithControls(extraControls...)
			}
			// Reject control == target and duplicated controls here, with
			// the line number, instead of letting the state-vector kernels
			// panic deep inside a run.
			if err := validateGateQubits(full); err != nil {
				return nil, nil, fmt.Errorf("qasm: line %d: %v", lineNo, err)
			}
			circ.Append(full)
			sm.GateLine = append(sm.GateLine, lineNo)
		}
	}
	if region != nil {
		return nil, nil, fmt.Errorf("qasm: line %d: region %q never closed", region.line, region.name)
	}
	if circ == nil {
		return nil, nil, fmt.Errorf("qasm: missing qubits directive")
	}
	return circ, sm, nil
}

// validateGateQubits rejects gates whose target and controls are not
// pairwise distinct. The set is 256 bits wide because the qubits
// directive admits registers up to 255 — a single uint64 mask would
// silently pass duplicates at indices >= 64 (shifts of >= 64 drop out).
func validateGateQubits(g gates.Gate) error {
	var seen [4]uint64
	seen[g.Target>>6] = 1 << (g.Target & 63)
	for _, q := range g.Controls {
		w, b := q>>6, uint64(1)<<(q&63)
		if seen[w]&b != 0 {
			return fmt.Errorf("duplicate qubit %d in gate (target and controls must be distinct)", q)
		}
		seen[w] |= b
	}
	return nil
}

// ParseString parses a circuit from a string.
func ParseString(s string) (*circuit.Circuit, error) {
	c, _, err := parseText(s)
	return c, err
}

func parseQubit(s string, n uint) (uint, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad qubit %q", s)
	}
	if uint(v) >= n {
		return 0, fmt.Errorf("qubit %d out of range (register width %d)", v, n)
	}
	return uint(v), nil
}

func parseAngle(s string) (float64, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") || strings.HasPrefix(s, "+") {
		neg = s[0] == '-'
		s = s[1:]
	}
	// At most one leading sign: "--1" must not cancel to +1 via
	// ParseFloat's own sign handling, and "+-1" style stacking is equally
	// malformed.
	if strings.HasPrefix(s, "-") || strings.HasPrefix(s, "+") {
		return 0, fmt.Errorf("bad angle %q: more than one sign", orig)
	}
	var v float64
	switch {
	case s == "pi":
		v = math.Pi
	case strings.HasPrefix(s, "pi/"):
		d, err := strconv.ParseFloat(s[3:], 64)
		if err != nil || d <= 0 {
			// The divisor carries no sign of its own; negate the whole
			// angle instead ("-pi/4", not "pi/-4").
			return 0, fmt.Errorf("bad angle %q", orig)
		}
		v = math.Pi / d
	default:
		var err error
		v, err = strconv.ParseFloat(s, 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, fmt.Errorf("bad angle %q", orig)
		}
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseGate appends the gate(s) of one gate line to out.
func parseGate(out []gates.Gate, fields []string, n uint) ([]gates.Gate, error) {
	name := fields[0]
	args := fields[1:]
	// No gate takes more than three qubits, so the parsed arguments come
	// back by value.
	qubitArgs := func(count int) (qs [3]uint, err error) {
		if len(args) != count {
			return qs, fmt.Errorf("%s expects %d qubit argument(s), got %d", name, count, len(args))
		}
		for i, a := range args {
			if qs[i], err = parseQubit(a, n); err != nil {
				return qs, err
			}
		}
		return qs, nil
	}
	qubitAngleArgs := func(count int) (qs [3]uint, theta float64, err error) {
		if len(args) != count+1 {
			return qs, 0, fmt.Errorf("%s expects %d qubit(s) and an angle", name, count)
		}
		for i := 0; i < count; i++ {
			if qs[i], err = parseQubit(args[i], n); err != nil {
				return qs, 0, err
			}
		}
		theta, err = parseAngle(args[count])
		return qs, theta, err
	}

	switch name {
	case "x", "not":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.X(q[0])), nil
	case "y":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Y(q[0])), nil
	case "z":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Z(q[0])), nil
	case "h":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.H(q[0])), nil
	case "s":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.S(q[0])), nil
	case "t":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.T(q[0])), nil
	case "sdg":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.S(q[0]).Dagger()), nil
	case "tdg":
		q, err := qubitArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.T(q[0]).Dagger()), nil
	case "rx":
		q, theta, err := qubitAngleArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Rx(q[0], theta)), nil
	case "ry":
		q, theta, err := qubitAngleArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Ry(q[0], theta)), nil
	case "rz":
		q, theta, err := qubitAngleArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Rz(q[0], theta)), nil
	case "phase", "r":
		q, theta, err := qubitAngleArgs(1)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Phase(q[0], theta)), nil
	case "cnot", "cx":
		q, err := qubitArgs(2)
		if err != nil {
			return nil, err
		}
		return append(out, gates.CNOT(q[0], q[1])), nil
	case "cz":
		q, err := qubitArgs(2)
		if err != nil {
			return nil, err
		}
		return append(out, gates.CZ(q[0], q[1])), nil
	case "cr", "cphase":
		q, theta, err := qubitAngleArgs(2)
		if err != nil {
			return nil, err
		}
		return append(out, gates.CR(q[0], q[1], theta)), nil
	case "toffoli", "ccx", "ccnot":
		q, err := qubitArgs(3)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Toffoli(q[0], q[1], q[2])), nil
	case "swap":
		q, err := qubitArgs(2)
		if err != nil {
			return nil, err
		}
		return append(out, gates.Swap(q[0], q[1])...), nil
	default:
		return nil, fmt.Errorf("unknown gate %q", name)
	}
}

// Write serialises a circuit in the package's text format, including its
// region annotations, so Parse(Write(c)) reproduces both the gates and
// the emulation markers. Gates whose matrices are not in the standard set
// (every matrix Parse can produce round-trips, rotations included) are
// rejected.
func Write(w io.Writer, c *circuit.Circuit) error {
	if err := c.Noise.Validate(c.NumQubits, len(c.Gates)); err != nil {
		return fmt.Errorf("qasm: %v", err)
	}
	if _, err := fmt.Fprintf(w, "qubits %d\n", c.NumQubits); err != nil {
		return err
	}
	regions := c.Regions // sorted by Lo, pairwise disjoint
	emit := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	var perGate []circuit.GateNoise // sorted by gate index
	if c.Noise != nil {
		for _, ch := range c.Noise.Global {
			if err := emit("noise %s %s\n", ch.Kind, formatProb(ch.P)); err != nil {
				return err
			}
		}
		perGate = c.Noise.PerGate
	}
	for i := 0; i <= len(c.Gates); i++ {
		for len(regions) > 0 && regions[0].Hi == i && regions[0].Lo < i {
			if err := emit("endregion\n"); err != nil {
				return err
			}
			regions = regions[1:]
		}
		if len(regions) > 0 && regions[0].Lo == i {
			line := "region " + regions[0].Name
			for _, a := range regions[0].Args {
				line += fmt.Sprintf(" %d", a)
			}
			if err := emit("%s\n", line); err != nil {
				return err
			}
			if regions[0].Hi == i { // empty region
				if err := emit("endregion\n"); err != nil {
					return err
				}
				regions = regions[1:]
			}
		}
		if i == len(c.Gates) {
			break
		}
		line, err := formatGate(c.Gates[i])
		if err != nil {
			return err
		}
		if err := emit("%s\n", line); err != nil {
			return err
		}
		for len(perGate) > 0 && perGate[0].Gate == i {
			gn := perGate[0]
			if err := emit("noise %s %s %d\n", gn.Ch.Kind, formatProb(gn.Ch.P), gn.Qubit); err != nil {
				return err
			}
			perGate = perGate[1:]
		}
	}
	return nil
}

// formatProb serialises a channel probability with enough digits to
// round-trip the float64 exactly.
func formatProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}

func formatGate(g gates.Gate) (string, error) {
	var base string
	switch {
	case g.Matrix == gates.MatX && len(g.Controls) == 1:
		return fmt.Sprintf("cnot %d %d", g.Controls[0], g.Target), nil
	case g.Matrix == gates.MatX && len(g.Controls) == 2:
		return fmt.Sprintf("toffoli %d %d %d", g.Controls[0], g.Controls[1], g.Target), nil
	case g.Matrix == gates.MatX:
		base = fmt.Sprintf("x %d", g.Target)
	case g.Matrix == gates.MatY:
		base = fmt.Sprintf("y %d", g.Target)
	case g.Matrix == gates.MatZ:
		base = fmt.Sprintf("z %d", g.Target)
	case g.Matrix == gates.MatH:
		base = fmt.Sprintf("h %d", g.Target)
	case g.Matrix == gates.MatS:
		base = fmt.Sprintf("s %d", g.Target)
	case g.Matrix == gates.MatT:
		base = fmt.Sprintf("t %d", g.Target)
	case g.Matrix.Classify() == gates.Diagonal && g.Matrix[0] == 1:
		theta := phaseAngle(g.Matrix[3])
		if len(g.Controls) == 1 {
			return fmt.Sprintf("cr %d %d %.17g", g.Controls[0], g.Target, theta), nil
		}
		base = fmt.Sprintf("phase %d %.17g", g.Target, theta)
	default:
		name, theta, ok := recoverRotation(g.Matrix)
		if !ok {
			return "", fmt.Errorf("qasm: gate %v has no textual form", g)
		}
		base = fmt.Sprintf("%s %d %.17g", name, g.Target, theta)
	}
	if len(g.Controls) == 0 {
		return base, nil
	}
	ctl := "ctrl"
	for _, c := range g.Controls {
		ctl += fmt.Sprintf(" %d", c)
	}
	return ctl + " : " + base, nil
}

func phaseAngle(z complex128) float64 {
	return math.Atan2(imag(z), real(z))
}

// rotEps is the tolerance for recognising a matrix as an rx/ry/rz
// rotation when serialising: the recovered angle regenerates the matrix
// to well under this bound, while genuinely unstructured unitaries miss
// by O(1).
const rotEps = 1e-12

// recoverRotation recognises the Rx/Ry/Rz matrix shapes and returns the
// gate name with its angle, so every matrix Parse can produce has a
// textual form and Write∘Parse is total over the supported gate set.
func recoverRotation(m gates.Matrix2) (string, float64, bool) {
	within := func(a, b gates.Matrix2) bool {
		for i := range a {
			if d := a[i] - b[i]; real(d)*real(d)+imag(d)*imag(d) > rotEps*rotEps {
				return false
			}
		}
		return true
	}
	// Rx: {cos, -i sin, -i sin, cos}.
	if theta := 2 * math.Atan2(-imag(m[1]), real(m[0])); within(m, gates.Rx(0, theta).Matrix) {
		return "rx", theta, true
	}
	// Ry: {cos, -sin, sin, cos}, all real.
	if theta := 2 * math.Atan2(real(m[2]), real(m[0])); within(m, gates.Ry(0, theta).Matrix) {
		return "ry", theta, true
	}
	// Rz: diag(e^{-i theta/2}, e^{i theta/2}).
	if theta := 2 * math.Atan2(imag(m[3]), real(m[3])); within(m, gates.Rz(0, theta).Matrix) {
		return "rz", theta, true
	}
	return "", 0, false
}
