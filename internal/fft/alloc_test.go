package fft

import "testing"

// TestTransformDoesNotAllocate pins the per-call allocation profile of
// the drivers: the stage tiling and the tables belong to the plan, so a
// transform over an existing buffer on one worker must not touch the
// heap. Sizes cover every head radix (2^10 → radix-2 head, 2^11 →
// radix-4 head, 2^12 → radix-8 only), the element-wise and the blocked
// reversal, and one size past the first block.
func TestTransformDoesNotAllocate(t *testing.T) {
	for _, lg := range []uint{8, 10, 11, 12, 13} {
		p, err := NewPlan(1 << lg)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]complex128, p.size)
		data[1] = 1
		for name, run := range map[string]func([]complex128){
			"ForwardSerial":      p.ForwardSerial,
			"InverseSerial":      p.InverseSerial,
			"Unitary":            func(d []complex128) { p.Unitary(d, 1) },
			"UnitaryBitReversed": func(d []complex128) { p.UnitaryBitReversed(d, 1) },
		} {
			if n := testing.AllocsPerRun(20, func() { run(data) }); n != 0 {
				t.Errorf("size 2^%d %s: %v allocs per run, want 0", lg, name, n)
			}
		}
	}
}

// TestTransformFieldInPlace pins the contiguous-fibre path of
// TransformField: a field starting at bit 0 is transformed where it lies,
// with no gather buffer and no allocation per call.
func TestTransformFieldInPlace(t *testing.T) {
	p, err := NewPlan(1 << 6)
	if err != nil {
		t.Fatal(err)
	}
	amps := make([]complex128, 1<<12)
	amps[1] = 1
	for _, inverse := range []bool{false, true} {
		if n := testing.AllocsPerRun(20, func() { p.TransformField(amps, 0, inverse, 1) }); n != 0 {
			t.Errorf("inverse=%v: %v allocs per run, want 0", inverse, n)
		}
	}
}

// BenchmarkForward reports allocations alongside throughput so a
// regression in the drivers shows up under -benchmem.
func BenchmarkForward(b *testing.B) {
	p, err := NewPlan(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]complex128, p.size)
	data[1] = 1
	b.ReportAllocs()
	b.SetBytes(int64(16 * p.size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(data)
	}
}
