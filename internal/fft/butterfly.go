package fft

import "repro/internal/cpufeat"

// run executes the group's butterflies with flat index t in [lo, hi):
// block t>>s, offset j = t&(h-1). dif selects the transposed
// (decimation-in-frequency) butterflies, inverse the conjugate twiddles.
// scale multiplies the outputs of the head group (s = 0) and is ignored
// elsewhere: the network is linear, so one group applying it scales the
// transform. Every group but the radix-2 head goes through whichever body
// this host runs (cpufeat.Active). The assembly heads take butterflies in
// pairs, so a head range with an odd end — a lone 4- or 8-point vector
// has one — runs on the Go head.
func (g *stageGroup) run(data []complex128, lo, hi uint64, dif, inverse bool, scale float64) {
	switch {
	case g.radix == 2:
		head2(data, lo, hi, scale)
	case g.s == 0 && cpufeat.Active() != cpufeat.Go && (lo|hi)&1 == 0:
		headAsm(g, data, lo, hi, dif, inverse, scale)
	case g.radix == 4:
		head4(data, lo, hi, dif, inverse, scale)
	case g.s == 0:
		head8(data, g.tw[twW3b], lo, hi, dif, inverse, scale)
	case cpufeat.Active() != cpufeat.Go:
		butterfly8Asm(data, g.tw, g.s, lo, hi, dif, inverse)
	default:
		butterfly8Go(data, g.tw, g.s, lo, hi, dif, inverse, 1)
	}
}

// scaled returns s·x for a real s.
func scaled(x complex128, s float64) complex128 {
	return complex(s*real(x), s*imag(x))
}

// head2 is the radix-2 head: span-one butterflies on the adjacent pairs
// [lo, hi), the twiddle being 1 in both networks and both directions.
func head2(data []complex128, lo, hi uint64, scale float64) {
	pairs := data[2*lo : 2*hi]
	for i := 0; i+1 < len(pairs); i += 2 {
		x0, x1 := pairs[i], pairs[i+1]
		pairs[i], pairs[i+1] = scaled(x0+x1, scale), scaled(x0-x1, scale)
	}
}

// rot returns x turned a quarter: i·x for sg = +1, -i·x for sg = -1.
func rot(x complex128, sg float64) complex128 {
	return complex(-sg*imag(x), sg*real(x))
}

// head4 is the radix-4 head: the span-one and span-two stages on the
// adjacent quadruples [lo, hi). Its twiddles are 1, 1 and a quarter turn.
func head4(data []complex128, lo, hi uint64, dif, inverse bool, scale float64) {
	sg := 1.0
	if inverse {
		sg = -1
	}
	quads := data[4*lo : 4*hi]
	for i := 0; i+3 < len(quads); i += 4 {
		x0, x1, x2, x3 := quads[i], quads[i+1], quads[i+2], quads[i+3]
		var o0, o1, o2, o3 complex128
		if dif {
			a, c := x0+x2, x0-x2
			b, d := x1+x3, rot(x1-x3, sg)
			o0, o1, o2, o3 = a+b, a-b, c+d, c-d
		} else {
			a, b := x0+x1, x0-x1
			c, d := x2+x3, rot(x2-x3, sg)
			o0, o1, o2, o3 = a+c, b+d, a-c, b-d
		}
		quads[i], quads[i+1] = scaled(o0, scale), scaled(o1, scale)
		quads[i+2], quads[i+3] = scaled(o2, scale), scaled(o3, scale)
	}
}

// head8 is the radix-8 head: butterfly8Go at span one, on the adjacent
// octuples [lo, hi), with its twiddles folded in. At s = 0 every factor
// of the table is 1 but w3b, which is W_8 (conjugated when inverse), so
// what is left is the additions, quarter turns and two multiplies by w;
// taking w from the group's table makes the result bit for bit
// butterfly8Go's.
func head8(data []complex128, w complex128, lo, hi uint64, dif, inverse bool, scale float64) {
	sg := 1.0
	if inverse {
		sg = -1
		w = complex(real(w), -imag(w))
	}
	octs := data[8*lo : 8*hi]
	for i := 0; i+7 < len(octs); i += 8 {
		o := (*[8]complex128)(octs[i:])
		x0, x1, x2, x3, x4, x5, x6, x7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		var c0, c1, c2, c3, c4, c5, c6, c7 complex128
		if dif {
			a0, a4 := x0+x4, x0-x4
			a1, a5 := x1+x5, (x1-x5)*w
			a2, a6 := x2+x6, rot(x2-x6, sg)
			a3, a7 := x3+x7, rot(x3-x7, sg)*w
			b0, b2 := a0+a2, a0-a2
			b1, b3 := a1+a3, rot(a1-a3, sg)
			b4, b6 := a4+a6, a4-a6
			b5, b7 := a5+a7, rot(a5-a7, sg)
			c0, c1 = b0+b1, b0-b1
			c2, c3 = b2+b3, b2-b3
			c4, c5 = b4+b5, b4-b5
			c6, c7 = b6+b7, b6-b7
		} else {
			a0, a1 := x0+x1, x0-x1
			a2, a3 := x2+x3, x2-x3
			a4, a5 := x4+x5, x4-x5
			a6, a7 := x6+x7, x6-x7
			b0, b2 := a0+a2, a0-a2
			tt := rot(a3, sg)
			b1, b3 := a1+tt, a1-tt
			b4, b6 := a4+a6, a4-a6
			tt = rot(a7, sg)
			b5, b7 := a5+tt, a5-tt
			c0, c4 = b0+b4, b0-b4
			tt = w * b5
			c1, c5 = b1+tt, b1-tt
			tt = rot(b6, sg)
			c2, c6 = b2+tt, b2-tt
			tt = rot(w*b7, sg)
			c3, c7 = b3+tt, b3-tt
		}
		if scale != 1 {
			c0, c1, c2, c3 = scaled(c0, scale), scaled(c1, scale), scaled(c2, scale), scaled(c3, scale)
			c4, c5, c6, c7 = scaled(c4, scale), scaled(c5, scale), scaled(c6, scale), scaled(c7, scale)
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// butterfly8Go is the pure-Go radix-8 body: three fused stages of spans
// h, 2h, 4h within one 8h block, every element read and written once.
// DIT runs them in that order with the twiddle applied before the
// add/subtract; DIF is the transpose — spans 4h, 2h, h with the twiddle
// on the difference. Twiddles come from the group's packed table (see
// packed): four loaded, three derived by a quarter turn.
func butterfly8Go(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool, scale float64) {
	h := uint64(1) << s
	hm := h - 1
	sg := 1.0
	if inverse {
		sg = -1
	}
	for t := lo; t < hi; t++ {
		j := t & hm
		i0 := (t&^hm)<<3 | j
		i1 := i0 + h
		i2 := i1 + h
		i3 := i2 + h
		i4 := i3 + h
		i5 := i4 + h
		i6 := i5 + h
		i7 := i6 + h
		run := runOf(tw, j)
		w1, w2, w3a, w3b := run[twW1], run[twW2a], run[twW3a], run[twW3b]
		if inverse {
			w1 = complex(real(w1), -imag(w1))
			w2 = complex(real(w2), -imag(w2))
			w3a = complex(real(w3a), -imag(w3a))
			w3b = complex(real(w3b), -imag(w3b))
		}
		x0, x1, x2, x3 := data[i0], data[i1], data[i2], data[i3]
		x4, x5, x6, x7 := data[i4], data[i5], data[i6], data[i7]
		var c0, c1, c2, c3, c4, c5, c6, c7 complex128
		if dif {
			// Span 4h on (0,4) (1,5) (2,6) (3,7).
			a0, a4 := x0+x4, (x0-x4)*w3a
			a1, a5 := x1+x5, (x1-x5)*w3b
			a2, a6 := x2+x6, rot(x2-x6, sg)*w3a
			a3, a7 := x3+x7, rot(x3-x7, sg)*w3b
			// Span 2h on (0,2) (1,3) (4,6) (5,7).
			b0, b2 := a0+a2, (a0-a2)*w2
			b1, b3 := a1+a3, rot(a1-a3, sg)*w2
			b4, b6 := a4+a6, (a4-a6)*w2
			b5, b7 := a5+a7, rot(a5-a7, sg)*w2
			// Span h on (0,1) (2,3) (4,5) (6,7).
			c0, c1 = b0+b1, (b0-b1)*w1
			c2, c3 = b2+b3, (b2-b3)*w1
			c4, c5 = b4+b5, (b4-b5)*w1
			c6, c7 = b6+b7, (b6-b7)*w1
		} else {
			// Span h on (0,1) (2,3) (4,5) (6,7).
			tt := w1 * x1
			a0, a1 := x0+tt, x0-tt
			tt = w1 * x3
			a2, a3 := x2+tt, x2-tt
			tt = w1 * x5
			a4, a5 := x4+tt, x4-tt
			tt = w1 * x7
			a6, a7 := x6+tt, x6-tt
			// Span 2h on (0,2) (1,3) (4,6) (5,7).
			tt = w2 * a2
			b0, b2 := a0+tt, a0-tt
			tt = rot(w2*a3, sg)
			b1, b3 := a1+tt, a1-tt
			tt = w2 * a6
			b4, b6 := a4+tt, a4-tt
			tt = rot(w2*a7, sg)
			b5, b7 := a5+tt, a5-tt
			// Span 4h on (0,4) (1,5) (2,6) (3,7).
			tt = w3a * b4
			c0, c4 = b0+tt, b0-tt
			tt = w3b * b5
			c1, c5 = b1+tt, b1-tt
			tt = rot(w3a*b6, sg)
			c2, c6 = b2+tt, b2-tt
			tt = rot(w3b*b7, sg)
			c3, c7 = b3+tt, b3-tt
		}
		if scale != 1 {
			c0, c1, c2, c3 = scaled(c0, scale), scaled(c1, scale), scaled(c2, scale), scaled(c3, scale)
			c4, c5, c6, c7 = scaled(c4, scale), scaled(c5, scale), scaled(c6, scale), scaled(c7, scale)
		}
		data[i0], data[i1], data[i2], data[i3] = c0, c1, c2, c3
		data[i4], data[i5], data[i6], data[i7] = c4, c5, c6, c7
	}
}
