// Package binio provides the little-endian binary writer/reader the
// Executable codec (internal/backend, internal/recognize) is built on.
//
// Both halves use a sticky-error design: every Read* method returns a
// usable zero value once the reader has failed, and Err() reports the
// first failure. Decoders therefore never panic on truncated or corrupt
// input — they read optimistically, validate what they got, and surface
// one error at the end. This is the property the codec's corruption tests
// pin: arbitrary byte streams must produce errors, not crashes.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is the sticky error a Reader fails with when the input
// ends before the requested value.
var ErrShortBuffer = errors.New("binio: input truncated")

// maxSliceLen bounds decoded slice and string lengths. A corrupt length
// prefix must fail cleanly instead of attempting a multi-gigabyte
// allocation; every legitimate payload in this repository is far smaller.
const maxSliceLen = 1 << 28

// Writer appends fixed-width little-endian values to a byte buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer appending to buf (which may be nil).
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the writer, keeping its buffer for reuse. Slices
// previously returned by Bytes are overwritten by later writes.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Raw appends b verbatim, with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// C128 appends a complex128 as two float64s (real, imag).
func (w *Writer) C128(v complex128) {
	w.F64(real(v))
	w.F64(imag(v))
}

// String appends a u32 length prefix followed by the raw bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Uints appends a u32 count prefix followed by each element as u64.
func (w *Writer) Uints(vs []uint) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(uint64(v))
	}
}

// Complexes appends a u32 count prefix followed by each element.
func (w *Writer) Complexes(vs []complex128) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.C128(v)
	}
}

// Reader consumes little-endian values from a byte buffer. The first
// failure (truncation, oversized length prefix) sticks: subsequent reads
// return zero values and Err() reports the original problem.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error the reader hit, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes (0 after a failure).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// fail records the first error and poisons subsequent reads.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.off = len(r.buf)
	}
}

// Take returns the next n bytes verbatim (no length prefix), failing
// with ErrShortBuffer if fewer remain. The slice aliases the input.
func (r *Reader) Take(n int) []byte { return r.take(n) }

// take returns the next n bytes, failing with ErrShortBuffer if fewer
// remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte, failing on values other than 0 and 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("binio: invalid bool encoding"))
		return false
	}
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// C128 reads a complex128.
func (r *Reader) C128() complex128 {
	re := r.F64()
	im := r.F64()
	return complex(re, im)
}

// sliceLen reads and validates a u32 length prefix.
func (r *Reader) sliceLen() int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.fail(fmt.Errorf("binio: length prefix %d exceeds limit", n))
		return 0
	}
	// A length prefix can never legitimately exceed the remaining input
	// (every element is at least one byte); rejecting it here prevents a
	// corrupt prefix from driving a huge allocation below.
	if n > len(r.buf)-r.off {
		r.fail(ErrShortBuffer)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Uints reads a count-prefixed []uint (elements stored as u64).
func (r *Reader) Uints() []uint {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint, n)
	for i := range out {
		v := r.U64()
		if v > math.MaxUint32 {
			// Qubit indices and widths are tiny; a huge value is corruption.
			r.fail(fmt.Errorf("binio: uint element %d out of range", v))
			return nil
		}
		out[i] = uint(v)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Complexes reads a count-prefixed []complex128.
func (r *Reader) Complexes() []complex128 {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.C128()
	}
	if r.err != nil {
		return nil
	}
	return out
}
