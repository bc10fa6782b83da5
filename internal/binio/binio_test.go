package binio

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// complexesPerElement is the element-at-a-time encoding Complexes
// replaced: the count prefix, then C128 per value.
func complexesPerElement(w *Writer, vs []complex128) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.C128(v)
	}
}

// TestComplexesMatchPerElement holds the bulk encoder to the bytes of the
// per-element one, behind a prefix of odd length and for random lengths
// including 0, and reads every encoding back exactly.
func TestComplexesMatchPerElement(t *testing.T) {
	src := rng.New(7)
	special := []complex128{complex(math.Inf(1), math.Copysign(0, -1)), complex(math.NaN(), math.SmallestNonzeroFloat64)}
	for trial := 0; trial < 200; trial++ {
		n := 0
		if trial > 0 {
			n = src.Intn(1 << uint(1+trial%12))
		}
		vs := make([]complex128, n)
		for i := range vs {
			vs[i] = src.Complex()
		}
		if n >= len(special) && trial%3 == 0 {
			copy(vs, special)
		}
		prefix := make([]byte, trial%5)
		got, want := NewWriter(append([]byte(nil), prefix...)), NewWriter(append([]byte(nil), prefix...))
		got.Complexes(vs)
		got.U8(0xa5)
		complexesPerElement(want, vs)
		want.U8(0xa5)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: bulk encoding differs from the per-element one", n)
		}

		r := NewReader(got.Bytes())
		r.Take(len(prefix))
		back := r.Complexes()
		if r.U8() != 0xa5 || r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("n=%d: read back misaligned (err %v, %d bytes left)", n, r.Err(), r.Remaining())
		}
		if len(back) != n {
			t.Fatalf("n=%d: read back %d values", n, len(back))
		}
		for i := range back {
			if math.Float64bits(real(back[i])) != math.Float64bits(real(vs[i])) ||
				math.Float64bits(imag(back[i])) != math.Float64bits(imag(vs[i])) {
				t.Fatalf("n=%d: value %d read back as %v, wrote %v", n, i, back[i], vs[i])
			}
		}
	}
}

// TestComplexesTruncated: a count whose payload is cut short at any byte
// fails with ErrShortBuffer and yields nil, never a partial slice.
func TestComplexesTruncated(t *testing.T) {
	w := NewWriter(nil)
	w.Complexes([]complex128{1, 2i, 3 + 4i})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		if got := r.Complexes(); got != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Fatalf("cut at %d of %d: got %v, err %v", cut, len(full), got, r.Err())
		}
	}
}

// TestU64sRoundTrip reads back what U64s wrote, values past 2^32 and an
// empty list included, and fails a payload cut at any byte with
// ErrShortBuffer and nil.
func TestU64sRoundTrip(t *testing.T) {
	for _, vs := range [][]uint64{nil, {0}, {1 << 63, math.MaxUint64, 7, 1 << 40}} {
		w := NewWriter(nil)
		w.U64s(vs)
		w.U8(0xa5)
		r := NewReader(w.Bytes())
		back := r.U64s()
		if r.U8() != 0xa5 || r.Err() != nil || len(back) != len(vs) {
			t.Fatalf("%v: read back %v (err %v)", vs, back, r.Err())
		}
		for i := range vs {
			if back[i] != vs[i] {
				t.Fatalf("%v: value %d read back as %d", vs, i, back[i])
			}
		}
		full := w.Bytes()[:w.Len()-1]
		for cut := 0; cut < len(full); cut++ {
			r := NewReader(full[:cut])
			if got := r.U64s(); got != nil || !errors.Is(r.Err(), ErrShortBuffer) {
				t.Fatalf("%v cut at %d of %d: got %v, err %v", vs, cut, len(full), got, r.Err())
			}
		}
	}
}
