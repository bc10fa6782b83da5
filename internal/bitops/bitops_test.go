package bitops

import (
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{4, 0xf},
		{63, 0x7fffffffffffffff},
		{64, ^uint64(0)},
		{70, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestBitSet(t *testing.T) {
	x := uint64(0b1010)
	if Bit(x, 1) != 1 || Bit(x, 0) != 0 {
		t.Fatalf("Bit readings wrong for %b", x)
	}
	if got := SetBit(x, 0, 1); got != 0b1011 {
		t.Errorf("SetBit(1010, 0, 1) = %b", got)
	}
	if got := SetBit(x, 1, 0); got != 0b1000 {
		t.Errorf("SetBit(1010, 1, 0) = %b", got)
	}
}

func TestInsertZeroBit(t *testing.T) {
	// Inserting at position 0 shifts everything up.
	if got := InsertZeroBit(0b111, 0); got != 0b1110 {
		t.Errorf("InsertZeroBit(111, 0) = %b", got)
	}
	// Inserting at position 2 splits around bit 2.
	if got := InsertZeroBit(0b111, 2); got != 0b1011 {
		t.Errorf("InsertZeroBit(111, 2) = %b", got)
	}
	// Inserted bit is always zero and ORing the stride gives the partner.
	for i := uint64(0); i < 64; i++ {
		for k := uint(0); k < 6; k++ {
			v := InsertZeroBit(i, k)
			if Bit(v, k) != 0 {
				t.Fatalf("InsertZeroBit(%d, %d) has bit %d set", i, k, k)
			}
		}
	}
}

func TestInsertZeroBitEnumeratesComplement(t *testing.T) {
	// For fixed k, the map c -> InsertZeroBit(c, k) must enumerate exactly
	// the indices with bit k clear, bijectively.
	const n = 5
	for k := uint(0); k < n; k++ {
		seen := make(map[uint64]bool)
		for c := uint64(0); c < 1<<(n-1); c++ {
			v := InsertZeroBit(c, k)
			if v >= 1<<n {
				t.Fatalf("k=%d c=%d: value %d out of range", k, c, v)
			}
			if Bit(v, k) != 0 {
				t.Fatalf("k=%d c=%d: bit set", k, c)
			}
			if seen[v] {
				t.Fatalf("k=%d: duplicate %d", k, v)
			}
			seen[v] = true
		}
		if len(seen) != 1<<(n-1) {
			t.Fatalf("k=%d: got %d values", k, len(seen))
		}
	}
}

func TestDeposit(t *testing.T) {
	x := uint64(0xabcd)
	if got := DepositBits(x, 4, 8, 0xff); got != 0xaffd {
		t.Errorf("DepositBits = %#x", got)
	}
	// Property: the field reads back v, and the bits outside it are x's.
	f := func(x, v uint64) bool {
		pos, width := uint(8), uint(16)
		m := Mask(width) << pos
		d := DepositBits(x, pos, width, v)
		return (d>>pos)&Mask(width) == v&Mask(width) && d&^m == x&^m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseBits(t *testing.T) {
	if got := ReverseBits(0b0011, 4); got != 0b1100 {
		t.Errorf("ReverseBits(0011, 4) = %b", got)
	}
	f := func(x uint64) bool {
		x &= Mask(10)
		return ReverseBits(ReverseBits(x, 10), 10) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowersOfTwo(t *testing.T) {
	if !IsPowerOfTwo(1) || !IsPowerOfTwo(1024) || IsPowerOfTwo(0) || IsPowerOfTwo(12) {
		t.Error("IsPowerOfTwo misclassifies")
	}
	if Log2(1) != 0 || Log2(2) != 1 || Log2(1024) != 10 || Log2(1023) != 9 {
		t.Error("Log2 wrong")
	}
}

func TestControlMask(t *testing.T) {
	if got := ControlMask([]uint{0, 3, 5}); got != 0b101001 {
		t.Errorf("ControlMask = %b", got)
	}
}
