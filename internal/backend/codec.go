package backend

import (
	"crypto/sha256"
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
//	target       (register width, kind, fusion width, nodes, emulation mode, cost model)
//	source key   (the compile-time Fingerprint — the serving cache's key; v3)
//	noise plan   (channel insertion points in plan order; count 0 = ideal; v4)
//	gate count   | skipped-region list
//	unit index   (count, then per unit: type byte + payload size)
//	unit payloads
//
// Recognised ops serialise their full lowered payload (register bit
// lists, diagonal tables, Fourier specs — see recognize.Op.EncodeBinary),
// so decoding never re-runs recognition or brute-force verification, the
// expensive passes. Gate segments serialise their gate stream; their
// fusion plans and communication schedules are rebuilt at decode time by
// the same lowering Compile uses — both are deterministic pure functions
// of (gates, target), so a decoded executable plans byte-for-byte the
// same blocks, remaps and rounds as the original.
//
// Version bump policy: CodecVersion changes whenever the wire layout of
// any section changes — including the recognize.Op payload and the opKind
// numbering — or when pass semantics change such that a rebuilt plan
// would diverge from the encoded summary. Encode always writes the
// current version; Decode additionally reads the strictly-additive older
// layouts back to codecMinVersion (a missing section decodes to its zero
// value: no SourceKey, no NoisePlan ⇒ ideal), so a persisted cache
// survives a version bump. Anything outside [codecMinVersion,
// CodecVersion] is rejected and a cache warm-start simply recompiles,
// which is always correct.
const (
	codecMagic = "QEXE"
	// v5 has v4's layout; the number moved because the noise pass did: a
	// v5 noisy artifact holds soft points inside its gate units, which a v4
	// reader's verifier would refuse, so it refuses the version instead
	// and recompiles. v4 artifacts (a unit boundary at every point) are a
	// special case of v5 and run unchanged.
	CodecVersion = 5
	// codecMinVersion is the oldest artifact layout Decode still reads:
	// v2 predates the SourceKey (v3) and NoisePlan (v4) sections.
	codecMinVersion = 2
)

// unit type tags of the encoded index.
const (
	unitGates = 0
	unitOp    = 1
)

// crcTable is the polynomial the container checksum uses.
var crcTable = crc32.MakeTable(crc32.IEEE)

// Encode serialises the executable to its versioned binary form.
func (x *Executable) Encode() ([]byte, error) {
	body := binio.NewWriter(nil)
	encodeTarget(body, x.Target)
	body.String(x.SourceKey)
	if x.Noise != nil {
		body.U32(uint32(len(x.Noise.Points)))
		for _, pt := range x.Noise.Points {
			body.I64(int64(pt.Gate))
			body.U64(uint64(pt.Qubit))
			body.U8(uint8(pt.Ch.Kind))
			body.F64(pt.Ch.P)
		}
	} else {
		body.U32(0)
	}
	body.I64(int64(x.NumGates))
	body.U32(uint32(len(x.Skipped)))
	for _, s := range x.Skipped {
		body.String(s.Name)
		body.I64(int64(s.Lo))
		body.I64(int64(s.Hi))
		body.String(s.Reason)
	}

	// Unit payloads first, so the index can carry their sizes up front.
	payloads := make([][]byte, len(x.Units))
	for i := range x.Units {
		u := &x.Units[i]
		w := binio.NewWriter(nil)
		w.I64(int64(u.Lo))
		w.I64(int64(u.Hi))
		if u.Op != nil {
			w.String(u.Substrate)
			u.Op.EncodeBinary(w)
		} else {
			w.U32(uint32(len(u.Gates)))
			for _, g := range u.Gates {
				encodeGate(w, g)
			}
		}
		payloads[i] = w.Bytes()
	}
	body.U32(uint32(len(x.Units)))
	for i := range x.Units {
		if x.Units[i].Op != nil {
			body.U8(unitOp)
		} else {
			body.U8(unitGates)
		}
		body.U64(uint64(len(payloads[i])))
	}
	for _, p := range payloads {
		body.Raw(p)
	}

	out := binio.NewWriter(make([]byte, 0, body.Len()+10))
	out.Raw([]byte(codecMagic))
	out.U16(CodecVersion)
	out.U32(crc32.Checksum(body.Bytes(), crcTable))
	out.Raw(body.Bytes())
	return out.Bytes(), nil
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
	x := &Executable{NumQubits: t.NumQubits, Target: t}
	if v >= 3 {
		x.SourceKey = br.String()
	}
	if v >= 4 {
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
			x.addOpUnit(op, substrate, lo, hi)
			continue
		}
		nGates := int(ur.U32())
		if err := ur.Err(); err != nil {
			return nil, fmt.Errorf("backend: unit %d gates: %w", i, err)
		}
		if nGates != hi-lo {
			return nil, fmt.Errorf("backend: unit %d holds %d gates for range [%d,%d)", i, nGates, lo, hi)
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
	w.U64(uint64(t.MaxLocalQubits))
	w.U8(uint8(t.Emulate))
	w.I64(int64(t.DiagMinGates))
	w.U64(uint64(t.DiagMaxWidth))
}

func decodeTarget(r *binio.Reader) (Target, error) {
	var t Target
	t.NumQubits = uint(r.U64())
	t.Auto = r.U8() != 0
	t.Kind = Kind(r.U8())
	t.FuseWidth = int(r.I64())
	t.Workers = int(r.I64())
	t.Nodes = int(r.I64())
	t.MaxLocalQubits = uint(r.U64())
	t.Emulate = recognize.Mode(r.U8())
	t.DiagMinGates = int(r.I64())
	t.DiagMaxWidth = uint(r.U64())
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
	if g.MaxQubit() >= n {
		return g, fmt.Errorf("gate %s touches qubit %d of a %d-qubit register", g.Name, g.MaxQubit(), n)
	}
	return g, nil
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
		w.String(r.Name)
		w.I64(int64(r.Lo))
		w.I64(int64(r.Hi))
		w.U32(uint32(len(r.Args)))
		for _, a := range r.Args {
			w.U64(a)
		}
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
