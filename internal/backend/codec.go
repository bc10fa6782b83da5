package backend

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"

	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/recognize"
)

// Executable (de)serialisation: a versioned binary container so compiled
// artifacts can persist to disk and warm-start a serving cache
// (internal/serve). The layout follows the SSTable idiom — header, then
// an index with every section size up front, then the payloads — so a
// reader can validate structure before touching any payload:
//
//	magic "QEXE" | version u16 | crc32 u32 (of everything after this field)
//	target       (register width, auto bit, kind, fusion width, workers, nodes, emulation mode)
//	source key   (the compile-time Fingerprint — the serving cache's key)
//	noise plan   (channel insertion points in plan order; count 0 = ideal)
//	gate count   | skipped-region list
//	unit index   (count, then per unit: type byte + payload size)
//	unit payloads (gate range, then a gate unit's gate stream, or an op
//	             unit's substrate and op: flags byte, region form, table)
//
// A recognised op is written as the region annotation it lowers from —
// name, gate range and args, the bytes Fingerprint hashes for a circuit's
// regions — plus the 2^w table of a matched diagonal run, and read back
// through the parser Analyze runs on annotations (recognize.Op.EncodeBinary,
// recognize.DecodeOpBinary), so decoding never re-runs recognition or
// brute-force verification, the expensive passes, and an op has one
// layout and one validator. Gate segments serialise their gate stream; their
// fusion plans and communication schedules are rebuilt at decode time by
// the same lowering Compile uses — both are deterministic pure functions
// of (gates, target), so a decoded executable plans byte-for-byte the
// same blocks, remaps and rounds as the original.
//
// Version bump policy: CodecVersion changes whenever the wire layout of
// any section changes — including the recognize.Op payload and the region
// vocabulary — or when pass semantics change such that a rebuilt plan
// would diverge from the encoded summary (v8: a single-node target is the
// cluster at P = 1, so its gate units carry schedules and its ops cluster
// substrates). Encode writes and Decode reads
// exactly one layout: an artifact of any other version is rejected, and a
// cache warm-start deletes it and recompiles, which is always correct.
// The Fourier lowering's feasibility rule narrowed without a bump: a v8
// op unit whose field has more bits on node positions than a shard holds
// (pos+w-L > L, e.g. field [2,7) of 8 qubits on 32 nodes), which earlier
// builds lowered, still decodes but fails VerifyExecutable, so a
// warm-start deletes it and an upload is refused. The one-node lowering
// of Fourier ops and reflections followed that precedent: at P = 1 they
// lower to local-fft and reflect, where earlier v8 builds named statevec,
// so such a v8 unit fails VerifyExecutable's substrate check in the same
// way.
//
// Cache keys: Fingerprint hashes the normalized target, and
// Target.normalize canonicalises FuseWidth without a bump — a negative
// width keys as 0, one past min(L, fuse.MaxWidth) as that cap, a Generic
// target's as 0. A key of a target already in that form is unchanged; an
// artifact persisted under the key of a non-canonical width is simply no
// longer looked up, and still decodes with its target normalized.
const (
	codecMagic = "QEXE"
	// CodecVersion is the one layout Encode writes and Decode reads.
	CodecVersion = 8
	// codecMinVersion is the oldest artifact layout Decode reads.
	codecMinVersion = CodecVersion
)

// unit type tags of the encoded index.
const (
	unitGates = 0
	unitOp    = 1
)

// crcTable is the polynomial the container checksum uses.
var crcTable = crc32.MakeTable(crc32.IEEE)

// Encode serialises the executable to its versioned binary form. The
// output buffer is sized once: every unit payload's length is known before
// it is written (unitLen), so the index carries the sizes up front and the
// payloads are encoded straight into place, a 2^14-entry diagonal table
// included.
func (x *Executable) Encode() ([]byte, error) {
	head := binio.NewWriter(make([]byte, 0, 256))
	encodeTarget(head, x.Target)
	head.String(x.SourceKey)
	if x.Noise != nil {
		head.U32(uint32(len(x.Noise.Points)))
		for _, pt := range x.Noise.Points {
			head.I64(int64(pt.Gate))
			head.U64(uint64(pt.Qubit))
			head.U8(uint8(pt.Ch.Kind))
			head.F64(pt.Ch.P)
		}
	} else {
		head.U32(0)
	}
	head.I64(int64(x.NumGates))
	head.U32(uint32(len(x.Skipped)))
	for _, s := range x.Skipped {
		head.String(s.Name)
		head.I64(int64(s.Lo))
		head.I64(int64(s.Hi))
		head.String(s.Reason)
	}

	sizes := make([]int, len(x.Units))
	total := 0
	for i := range x.Units {
		sizes[i] = unitLen(&x.Units[i])
		total += sizes[i]
	}
	out := binio.NewWriter(make([]byte, 0, 10+head.Len()+4+9*len(x.Units)+total))
	out.Raw([]byte(codecMagic))
	out.U16(CodecVersion)
	out.U32(0) // the checksum of everything after it, written last
	out.Raw(head.Bytes())
	out.U32(uint32(len(x.Units)))
	for i := range x.Units {
		if x.Units[i].Op != nil {
			out.U8(unitOp)
		} else {
			out.U8(unitGates)
		}
		out.U64(uint64(sizes[i]))
	}
	for i := range x.Units {
		u := &x.Units[i]
		start := out.Len()
		out.I64(int64(u.Lo))
		out.I64(int64(u.Hi))
		if u.Op != nil {
			out.String(u.Substrate)
			u.Op.EncodeBinary(out)
		} else {
			out.U32(uint32(len(u.Gates)))
			for _, g := range u.Gates {
				encodeGate(out, g)
			}
		}
		if n := out.Len() - start; n != sizes[i] {
			return nil, fmt.Errorf("backend: unit %d encoded %d bytes, sized %d", i, n, sizes[i])
		}
	}
	buf := out.Bytes()
	binary.LittleEndian.PutUint32(buf[6:10], crc32.Checksum(buf[10:], crcTable))
	return buf, nil
}

// unitLen is the length of u's encoded payload.
func unitLen(u *Unit) int {
	if u.Op != nil {
		return 8 + 8 + 4 + len(u.Substrate) + u.Op.EncodedLen()
	}
	n := 8 + 8 + 4
	for _, g := range u.Gates {
		n += minGateBytes + len(g.Name) + 8*len(g.Controls)
	}
	return n
}

// Decode parses an encoded executable, rebuilding the derived fusion
// plans and communication schedules for its target. It returns an error
// — never panics — on truncated, corrupt, version-skewed or
// out-of-register payloads.
func Decode(data []byte) (*Executable, error) {
	r := binio.NewReader(data)
	if magic := string(r.Take(4)); magic != codecMagic {
		return nil, fmt.Errorf("backend: not an executable artifact (bad magic)")
	}
	v := r.U16()
	if v < codecMinVersion || v > CodecVersion {
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("backend: decoding executable: %w", err)
		}
		return nil, fmt.Errorf("backend: executable format version %d, this build reads %d through %d",
			v, codecMinVersion, CodecVersion)
	}
	wantCRC := r.U32()
	body := r.Take(r.Remaining())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("backend: decoding executable: %w", err)
	}
	if got := crc32.Checksum(body, crcTable); got != wantCRC {
		return nil, fmt.Errorf("backend: executable artifact corrupt (crc mismatch)")
	}

	br := binio.NewReader(body)
	t, err := decodeTarget(br)
	if err != nil {
		return nil, err
	}
	t, err = t.normalize(t.NumQubits)
	if err != nil {
		return nil, fmt.Errorf("backend: decoded target invalid: %w", err)
	}
	x := &Executable{NumQubits: t.NumQubits, Target: t, SourceKey: br.String()}
	nPts := int(br.U32())
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("backend: decoding noise plan: %w", err)
	}
	// 25 bytes per encoded point bounds the count before allocating.
	if nPts < 0 || nPts*25 > br.Remaining() {
		return nil, fmt.Errorf("backend: noise plan count %d exceeds artifact", nPts)
	}
	if nPts > 0 {
		plan := &NoisePlan{Points: make([]NoisePoint, nPts)}
		for i := range plan.Points {
			pt := &plan.Points[i]
			pt.Gate = int(br.I64())
			pt.Qubit = uint(br.U64())
			pt.Ch.Kind = circuit.ChannelKind(br.U8())
			pt.Ch.P = br.F64()
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("backend: decoding noise plan: %w", err)
			}
			if err := pt.Ch.Validate(); err != nil {
				return nil, fmt.Errorf("backend: noise point %d: %v", i, err)
			}
			if pt.Gate < 0 {
				return nil, fmt.Errorf("backend: noise point %d at negative gate %d", i, pt.Gate)
			}
			if pt.Qubit >= t.NumQubits {
				return nil, fmt.Errorf("backend: noise point %d touches qubit %d of a %d-qubit register",
					i, pt.Qubit, t.NumQubits)
			}
			if i > 0 && plan.Points[i-1].Gate > pt.Gate {
				return nil, fmt.Errorf("backend: noise plan not sorted at point %d", i)
			}
		}
		x.Noise = plan
	}
	x.NumGates = int(br.I64())
	nSkip := int(br.U32())
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("backend: decoding executable: %w", err)
	}
	if x.NumGates < 0 {
		return nil, fmt.Errorf("backend: negative gate count in artifact")
	}
	if x.Noise != nil {
		for i := range x.Noise.Points {
			if g := x.Noise.Points[i].Gate; g >= x.NumGates {
				return nil, fmt.Errorf("backend: noise point %d at gate %d of %d", i, g, x.NumGates)
			}
		}
	}
	for i := 0; i < nSkip; i++ {
		s := recognize.Skip{Name: br.String()}
		s.Lo = int(br.I64())
		s.Hi = int(br.I64())
		s.Reason = br.String()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("backend: decoding skipped regions: %w", err)
		}
		x.Skipped = append(x.Skipped, s)
	}

	nUnits := int(br.U32())
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("backend: decoding unit index: %w", err)
	}
	// 9 bytes per index entry bound the count before allocating.
	if nUnits*9 > br.Remaining() {
		return nil, fmt.Errorf("backend: unit count %d exceeds artifact", nUnits)
	}
	type indexEntry struct {
		kind uint8
		size int
	}
	index := make([]indexEntry, nUnits)
	for i := range index {
		index[i].kind = br.U8()
		index[i].size = int(br.U64())
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("backend: decoding unit index: %w", err)
		}
		if k := index[i].kind; k != unitGates && k != unitOp {
			return nil, fmt.Errorf("backend: unknown unit type %d in artifact", k)
		}
		if index[i].size < 0 || index[i].size > br.Remaining() {
			return nil, fmt.Errorf("backend: unit %d size exceeds artifact", i)
		}
	}

	cursor := 0
	for i, e := range index {
		ur := binio.NewReader(br.Take(e.size))
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("backend: unit %d payload: %w", i, err)
		}
		lo := int(ur.I64())
		hi := int(ur.I64())
		if err := ur.Err(); err != nil {
			return nil, fmt.Errorf("backend: unit %d payload: %w", i, err)
		}
		if lo != cursor || hi < lo || hi > x.NumGates {
			return nil, fmt.Errorf("backend: unit %d covers gates [%d,%d), expected to start at %d of %d",
				i, lo, hi, cursor, x.NumGates)
		}
		cursor = hi
		if e.kind == unitOp {
			substrate := ur.String()
			op, err := recognize.DecodeOpBinary(ur, t.NumQubits)
			if err != nil {
				return nil, fmt.Errorf("backend: unit %d op: %w", i, err)
			}
			if ur.Remaining() != 0 {
				return nil, fmt.Errorf("backend: unit %d has %d trailing bytes", i, ur.Remaining())
			}
			if err := x.addOpUnit(op, substrate, lo, hi); err != nil {
				return nil, err
			}
			continue
		}
		nGates := int(ur.U32())
		if err := ur.Err(); err != nil {
			return nil, fmt.Errorf("backend: unit %d gates: %w", i, err)
		}
		if nGates != hi-lo {
			return nil, fmt.Errorf("backend: unit %d holds %d gates for range [%d,%d)", i, nGates, lo, hi)
		}
		if nGates*minGateBytes > ur.Remaining() {
			return nil, fmt.Errorf("backend: unit %d gate count %d exceeds its payload", i, nGates)
		}
		gs := make([]gates.Gate, nGates)
		for j := range gs {
			g, err := decodeGate(ur, t.NumQubits)
			if err != nil {
				return nil, fmt.Errorf("backend: unit %d gate %d: %w", i, j, err)
			}
			gs[j] = g
		}
		if ur.Remaining() != 0 {
			return nil, fmt.Errorf("backend: unit %d has %d trailing bytes", i, ur.Remaining())
		}
		if err := x.addGateUnit(gs, lo, hi); err != nil {
			return nil, err
		}
	}
	if err := x.closeCarry(); err != nil {
		return nil, err
	}
	if cursor != x.NumGates {
		return nil, fmt.Errorf("backend: units cover %d of %d gates", cursor, x.NumGates)
	}
	if br.Remaining() != 0 {
		return nil, fmt.Errorf("backend: %d trailing bytes after last unit", br.Remaining())
	}
	return x, nil
}

// encodeTarget writes every compilation-relevant target field.
func encodeTarget(w *binio.Writer, t Target) {
	w.U64(uint64(t.NumQubits))
	auto := uint8(0)
	if t.Auto {
		// Compiled executables always carry the resolved concrete target
		// (compileAuto sets Auto=false), but Fingerprint hashes requested
		// targets too — the bit keeps an auto request distinct from the
		// concrete shape it happens to resolve to. The Selection report
		// itself is metadata and is deliberately not serialised.
		auto = 1
	}
	w.U8(auto)
	w.U8(uint8(t.Kind))
	w.I64(int64(t.FuseWidth))
	w.I64(int64(t.Workers))
	w.I64(int64(t.Nodes))
	w.U8(uint8(t.Emulate))
}

func decodeTarget(r *binio.Reader) (Target, error) {
	var t Target
	t.NumQubits = uint(r.U64())
	t.Auto = r.U8() != 0
	t.Kind = Kind(r.U8())
	t.FuseWidth = int(r.I64())
	t.Workers = int(r.I64())
	t.Nodes = int(r.I64())
	t.Emulate = recognize.Mode(r.U8())
	if err := r.Err(); err != nil {
		return t, fmt.Errorf("backend: decoding target: %w", err)
	}
	if t.Kind < Fused || t.Kind > Cluster {
		return t, fmt.Errorf("backend: unknown target kind %d in artifact", int(t.Kind))
	}
	if t.Emulate < recognize.Off || t.Emulate > recognize.Auto {
		return t, fmt.Errorf("backend: unknown emulation mode %d in artifact", int(t.Emulate))
	}
	if t.NumQubits == 0 || t.NumQubits > 64 {
		return t, fmt.Errorf("backend: register width %d out of range in artifact", t.NumQubits)
	}
	return t, nil
}

// minGateBytes is the smallest encoded gate: an empty name, the 2x2
// matrix, the target and an empty control list.
const minGateBytes = 4 + 4*16 + 8 + 4

// encodeGate writes one gate (name, 2x2 matrix, target, controls).
func encodeGate(w *binio.Writer, g gates.Gate) {
	w.String(g.Name)
	for _, v := range g.Matrix {
		w.C128(v)
	}
	w.U64(uint64(g.Target))
	w.Uints(g.Controls)
}

func decodeGate(r *binio.Reader, n uint) (gates.Gate, error) {
	var g gates.Gate
	g.Name = r.String()
	for i := range g.Matrix {
		g.Matrix[i] = r.C128()
	}
	g.Target = uint(r.U64())
	g.Controls = r.Uints()
	if err := r.Err(); err != nil {
		return g, err
	}
	// Decode plans the gate next, before any verifier runs.
	return g, checkGateQubits(g, n)
}

// GateQubitError reports a gate that names a qubit outside the register,
// or one qubit twice: a control equal to the target, or a repeated control.
// The kernels take a gate's qubits to be distinct and in range, so Compile,
// Decode and VerifyExecutable refuse such a gate before anything plans or
// runs it.
type GateQubitError struct {
	Gate      string // the gate's name
	Qubit     uint   // the qubit out of range or named twice
	NumQubits uint
}

func (e *GateQubitError) Error() string {
	if e.Qubit >= e.NumQubits {
		return fmt.Sprintf("gate %s touches qubit %d of a %d-qubit register", e.Gate, e.Qubit, e.NumQubits)
	}
	return fmt.Sprintf("gate %s repeats qubit %d", e.Gate, e.Qubit)
}

// checkGateQubits returns a *GateQubitError unless g's target and controls
// are distinct qubits of an n-qubit register (n <= 64).
func checkGateQubits(g gates.Gate, n uint) error {
	if q := g.MaxQubit(); q >= n {
		return &GateQubitError{Gate: g.Name, Qubit: q, NumQubits: n}
	}
	seen := uint64(1) << g.Target
	for _, q := range g.Controls {
		if seen&(1<<q) != 0 {
			return &GateQubitError{Gate: g.Name, Qubit: q, NumQubits: n}
		}
		seen |= 1 << q
	}
	return nil
}

// Fingerprint returns the canonical cache key of compiling c for t: a
// sha256 over the circuit's gates and region annotations plus every
// normalized target field that influences the compiled artifact. Two
// (circuit, target) pairs share a fingerprint exactly when Compile
// produces interchangeable executables for them; Workers is excluded (it
// tunes run-time parallelism, not the artifact).
func Fingerprint(c *circuit.Circuit, t Target) (string, error) {
	t, err := t.normalize(c.NumQubits)
	if err != nil {
		return "", err
	}
	// The encoding streams into the hash through one small buffer,
	// flushed per gate: a long circuit's key costs no buffer of its size.
	h := sha256.New()
	var scratch [512]byte
	w := binio.NewWriter(scratch[:0])
	flush := func() {
		h.Write(w.Bytes())
		w.Reset()
	}
	t.Workers = 0
	encodeTarget(w, t)
	w.U32(uint32(len(c.Gates)))
	for _, g := range c.Gates {
		encodeGate(w, g)
		flush()
	}
	w.U32(uint32(len(c.Regions)))
	for _, r := range c.Regions {
		recognize.EncodeRegion(w, r)
	}
	// The noise section appends only when a model is attached, so every
	// ideal circuit keeps the fingerprint it had before noise existed —
	// persisted cache keys stay valid across the feature.
	if !c.Noise.Empty() {
		w.Raw([]byte("noise"))
		w.U32(uint32(len(c.Noise.Global)))
		for _, ch := range c.Noise.Global {
			w.U8(uint8(ch.Kind))
			w.F64(ch.P)
		}
		w.U32(uint32(len(c.Noise.PerGate)))
		for _, gn := range c.Noise.PerGate {
			w.I64(int64(gn.Gate))
			w.U64(uint64(gn.Qubit))
			w.U8(uint8(gn.Ch.Kind))
			w.F64(gn.Ch.P)
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil)), nil
}
