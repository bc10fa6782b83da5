package backend_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/cpufeat"
	"repro/internal/gates"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// wideBlocks returns the matrices of x's dense 8-qubit blocks, in plan
// order, and a description of every block's form for comparing plans.
func wideBlocks(x *backend.Executable) (matrices [][]complex128, forms string) {
	for _, u := range x.Units {
		if u.Fused == nil {
			continue
		}
		for i := range u.Fused.Blocks {
			b := &u.Fused.Blocks[i]
			forms += fmt.Sprintf("%v:%d:%t%t%t ", b.Qubits, len(b.Gates), b.Matrix != nil, b.Factors != nil, b.Diag != nil)
			if b.Matrix != nil && len(b.Qubits) == 8 {
				matrices = append(matrices, b.Matrix)
			}
		}
	}
	return matrices, forms
}

// TestWideBlockMatrixDeterministic: a w=8 block's matrix is built by
// sweeping a plan of its run through the dense kernels, yet the plan and
// the artifact do not depend on the kernel body that built it, and the
// matrix is the same bits on every build with one body, after
// Decode(Encode(x)) and on both assembly bodies; pure Go, which rounds
// each product, agrees to 1e-12 (TestDenseBodiesAgree's rule for the
// sweep itself).
func TestWideBlockMatrixDeterministic(t *testing.T) {
	if !hostPass {
		t.Skip("compares the bodies itself: ran in the first pass")
	}
	adder := circuit.New(8)
	src := rng.New(8)
	for adder.Len() < 400 {
		for q := uint(0); q < 8; q++ {
			adder.Append(gates.Ry(q, src.Float64()*3))
		}
		revlib.AdderWithCarryOut(adder, revlib.Seq(0, 3), revlib.Seq(3, 3), 6, 7)
	}
	tgt := backend.Target{NumQubits: 8, Kind: backend.Fused, FuseWidth: 8}
	for name, c := range map[string]*circuit.Circuit{
		"brickwork": circgen.Brickwork(rng.New(27), 8, 20),
		"adder":     adder,
	} {
		host := activeBody
		build := func(body cpufeat.Body) (*backend.Executable, []byte) {
			activeBody = body
			defer func() { activeBody = host }()
			x, err := backend.Compile(c, tgt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := x.Encode()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return x, data
		}
		x, data := build(host)
		want, wantForms := wideBlocks(x)
		if len(want) == 0 {
			t.Fatalf("%s: no dense 8-qubit block in the plan: %s", name, wantForms)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, _ := build(host)
		for body := int(host); body >= 0; body-- {
			z, zdata := build(cpufeat.Body(body))
			cases := map[string]*backend.Executable{fmt.Sprintf("the %s body", cpufeat.Body(body)): z}
			if body == int(host) {
				cases["a second build"], cases["Decode(Encode(x))"] = again, y
			}
			pureGo := body == 0 && host != cpufeat.Go
			for what, got := range cases {
				matrices, forms := wideBlocks(got)
				if forms != wantForms || !bytes.Equal(zdata, data) {
					t.Fatalf("%s: %s planned differently:\n%s\nwant\n%s", name, what, forms, wantForms)
				}
				for i, m := range matrices {
					for j, v := range m {
						w := want[i][j]
						d := v - w
						same := math.Float64bits(real(v)) == math.Float64bits(real(w)) && math.Float64bits(imag(v)) == math.Float64bits(imag(w))
						if !same && !(pureGo && math.Abs(real(d)) <= 1e-12 && math.Abs(imag(d)) <= 1e-12) {
							t.Fatalf("%s: %s: block %d entry %d is %v, the %s body built %v", name, what, i, j, v, host, w)
						}
					}
				}
			}
		}
	}
}
