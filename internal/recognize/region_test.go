package recognize

import (
	"math"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// sameOp reports whether a and b agree field for field, the fft plan
// aside (parseRegion builds one, and plans are shared per size).
func sameOp(a, b *Op) bool {
	tablesEqual := slices.EqualFunc(a.diag, b.diag, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
	return a.Lo == b.Lo && a.Hi == b.Hi && a.Annotated == b.Annotated && a.Verified == b.Verified &&
		a.kind == b.kind && a.pos == b.pos && a.width == b.width &&
		a.inverse == b.inverse && a.noswap == b.noswap && (a.plan == nil) == (b.plan == nil) &&
		slices.Equal(a.regA, b.regA) && slices.Equal(a.regB, b.regB) && slices.Equal(a.regC, b.regC) &&
		slices.Equal(a.regR, b.regR) && slices.Equal(a.regQ, b.regQ) &&
		a.carry == b.carry && a.bz == b.bz && a.m == b.m &&
		slices.Equal(a.qubits, b.qubits) && tablesEqual && a.value == b.value
}

// regionCircuit is an n-qubit circuit of one X per qubit, the whole of it
// annotated as the region name args.
func regionCircuit(n uint, name string, args []uint64) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.X(q))
	}
	c.Annotate(circuit.Region{Name: name, Args: args, Lo: 0, Hi: c.Len()})
	return c
}

// TestRegionArgOverflows: a width or count large enough to wrap an int in
// the argument arithmetic is an error that leaves the region in
// Plan.Skipped, never a panic or an allocation sized by the argument.
func TestRegionArgOverflows(t *testing.T) {
	for _, tc := range []struct {
		what string
		name string
		args []uint64
	}{
		{"register width in 1+2w+aux", "add", []uint64{1 << 63, 0}},
		{"divider width in 4m+3", "div", []uint64{1 << 62, 0, 1}},
		{"phase flip width in w+2", "phaseflip", []uint64{math.MaxUint64}},
		{"Fourier field end pos+width", "qft", []uint64{math.MaxUint64, 1}},
	} {
		c := regionCircuit(4, tc.name, tc.args)
		plan := Analyze(c, DefaultOptions(Annotated))
		if len(plan.Ops()) != 0 || len(plan.Skipped) != 1 {
			t.Errorf("%s (%s %v): ops %v, skipped %+v; want the region skipped",
				tc.what, tc.name, tc.args, plan.Ops(), plan.Skipped)
		}
	}
}

// fuzzRegionNames are the names FuzzRegionArgs draws from: the whole
// vocabulary, the wire-only diagonal and one unknown name.
var fuzzRegionNames = []string{"qft", "iqft", "qft-noswap", "iqft-noswap", "add", "sub", "addc",
	"mul", "div", "phaseflip", regionReflect, regionDiagonal, "bogus"}

// fuzzWideArgs are the values an args byte of 0xf0 or more stands for:
// the edges where width arithmetic wraps.
var fuzzWideArgs = []uint64{1 << 32, 1 << 62, 1<<62 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64,
	math.MaxUint32, math.MaxInt64}

// fuzzArgs reads one region argument per byte: the byte's value below
// 0xf0, else one of fuzzWideArgs.
func fuzzArgs(data []byte) []uint64 {
	args := make([]uint64, len(data))
	for i, b := range data {
		args[i] = uint64(b)
		if b >= 0xf0 {
			args[i] = fuzzWideArgs[int(b-0xf0)%len(fuzzWideArgs)]
		}
	}
	return args
}

// FuzzRegionArgs drives the one region parser with arbitrary names, args
// and register widths n ∈ [1, 20]: Analyze never panics, and every op it
// accepts passes Validate and is its own region form's parse, field for
// field.
func FuzzRegionArgs(f *testing.F) {
	f.Add(uint8(0), []byte{1, 3}, uint8(5))                    // qft 1 3
	f.Add(uint8(4), []byte{2, 0, 1, 2, 3, 4}, uint8(5))        // add
	f.Add(uint8(6), []byte{1, 0, 1, 2, 3}, uint8(4))           // addc
	f.Add(uint8(7), []byte{1, 0, 1, 2, 3}, uint8(4))           // mul
	f.Add(uint8(8), []byte{1, 0, 1, 2, 3, 4, 5}, uint8(6))     // div
	f.Add(uint8(9), []byte{3, 2, 0, 1, 5}, uint8(3))           // phaseflip
	f.Add(uint8(10), []byte{3, 2, 1, 0}, uint8(2))             // reflect-uniform
	f.Add(uint8(11), []byte{2, 0, 1}, uint8(4))                // diagonal: no table
	f.Add(uint8(4), []byte{0xf3, 0}, uint8(4))                 // add 2^63 0
	f.Add(uint8(8), []byte{0xf1, 0, 1}, uint8(4))              // div 2^62 0 1
	f.Add(uint8(9), []byte{0xf6}, uint8(4))                    // phaseflip 2^64-1
	f.Add(uint8(0), []byte{0xf6, 1}, uint8(4))                 // qft 2^64-1 1
	f.Add(uint8(12), []byte{1, 0}, uint8(1))                   // unknown name
	f.Add(uint8(5), []byte{9, 0, 1, 2, 3, 4, 5, 6}, uint8(20)) // sub, wrong count
	f.Fuzz(func(t *testing.T, name uint8, data []byte, width uint8) {
		n := 1 + uint(width)%20
		c := regionCircuit(n, fuzzRegionNames[int(name)%len(fuzzRegionNames)], fuzzArgs(data))
		Analyze(c, DefaultOptions(Annotated))
		// Unverified: keep the ops the one-X-per-qubit gates would fail.
		for _, op := range analyze(c, Annotated, false).Ops() {
			if err := op.Validate(n); err != nil {
				t.Fatalf("%v: accepted by Analyze, rejected by Validate: %v", op, err)
			}
			back, err := parseRegion(n, op.Region(), op.diag)
			if err != nil {
				t.Fatalf("%v: region form %+v does not parse: %v", op, op.Region(), err)
			}
			back.Annotated, back.Verified = op.Annotated, op.Verified
			if !sameOp(back, op) {
				t.Fatalf("%v: region form %+v parses to %v", op, op.Region(), back)
			}
		}
	})
}
