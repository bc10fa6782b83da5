// AVX-512 body of the radix-8 butterflies at spans h >= 4; see
// butterfly_amd64.go for the contract and the package comment ("Bodies")
// for the design.

#include "textflag.h"

// The AVX2 body (butterfly_amd64.s) widened from two offsets to four: the
// loops step the flat butterfly index t (R8) by four up to hi (R9), t a
// multiple of 4; offset j = t & (h-1), first leg i0 = (t-j)<<3 | j, legs h
// apart. One ZMM register holds the same leg of the butterflies at
// offsets j..j+3 — adjacent amplitudes, since j is a multiple of 4 and
// h >= 4 — and the run of the packed table at tw + 64 j holds their four
// stored twiddles, each one 64-byte [re_j, im_j, ..., re_j+3, im_j+3]
// load. The instruction sequence is the AVX2 body's, lane for lane, so the
// two bodies agree bit for bit. AVX512F encodings only: VPXORQ, not the
// DQ VXORPD, and the two sign masks are broadcast from the AVX2 body's
// 32-byte halves.
//
// Registers: AX data, BX tw, R10 h-1, R11 the leg stride in bytes, R12
// three strides; per iteration DX/SI the addresses of legs 0 and 4, DI
// the table run. Z0-Z8 hold the eight legs and the rotating spare, Z9/Z10
// and Z11/Z12 the split twiddles, Z13 the multiply's scratch, Z14 the
// conjugation mask and Z15 the quarter-turn mask.

// ADDRESS computes DX, SI and DI for the iteration at t = R8.
#define ADDRESS \
	MOVQ R8, CX          \
	ANDQ R10, CX         \
	MOVQ R8, DX          \
	SUBQ CX, DX          \
	SHLQ $3, DX          \
	ADDQ CX, DX          \
	SHLQ $4, DX          \
	ADDQ AX, DX          \
	LEAQ (DX)(R11*4), SI \
	SHLQ $6, CX          \
	LEAQ (BX)(CX*1), DI

#define LOADLEGS \
	VMOVUPD (DX), Z0         \
	VMOVUPD (DX)(R11*1), Z1  \
	VMOVUPD (DX)(R11*2), Z2  \
	VMOVUPD (DX)(R12*1), Z3  \
	VMOVUPD (SI), Z4         \
	VMOVUPD (SI)(R11*1), Z5  \
	VMOVUPD (SI)(R11*2), Z6  \
	VMOVUPD (SI)(R12*1), Z7

#define STORELEGS(l0, l1, l2, l3, l4, l5, l6, l7) \
	VMOVUPD l0, (DX)         \
	VMOVUPD l1, (DX)(R11*1)  \
	VMOVUPD l2, (DX)(R11*2)  \
	VMOVUPD l3, (DX)(R12*1)  \
	VMOVUPD l4, (SI)         \
	VMOVUPD l5, (SI)(R11*1)  \
	VMOVUPD l6, (SI)(R11*2)  \
	VMOVUPD l7, (SI)(R12*1)

// TWIDDLE splits the twiddle quadruple-pair at off(DI) into its
// duplicated real parts (re) and duplicated, direction-signed imaginary
// parts (im).
#define TWIDDLE(off, re, im) \
	VMOVDDUP  off(DI), re        \
	VPERMILPD $0xFF, off(DI), im \
	VPXORQ    Z14, im, im

// CMUL multiplies x by the twiddle (re, im) in place:
// [xr*wr - xi*wi, xi*wr + xr*wi].
#define CMUL(x, re, im) \
	VPERMILPD      $0x55, x, Z13 \
	VMULPD         im, Z13, Z13  \
	VFMADDSUB213PD Z13, re, x

// ROT turns x a quarter in the direction's sense, in place.
#define ROT(x) \
	VPERMILPD $0x55, x, x \
	VPXORQ    Z15, x, x

// BFLY leaves u+t in u and u-t in the spare; t is the new spare.
#define BFLY(u, t, spare) \
	VSUBPD t, u, spare \
	VADDPD t, u, u

// PROLOGUE loads the arguments shared by both directions.
#define PROLOGUE \
	MOVQ             data+0(FP), AX \
	MOVQ             tw+8(FP), BX   \
	MOVQ             masks+16(FP), CX \
	VBROADCASTF64X4  (CX), Z14      \
	VBROADCASTF64X4  32(CX), Z15    \
	MOVQ             h+24(FP), R11  \
	LEAQ             -1(R11), R10   \
	SHLQ             $4, R11        \
	LEAQ             (R11)(R11*2), R12 \
	MOVQ             lo+32(FP), R8  \
	MOVQ             hi+40(FP), R9

// func butterfly8DITAVX512(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)
//
// Decimation in time: spans h, 2h, 4h, the twiddle applied to the second
// input of each butterfly before the add/subtract.
TEXT ·butterfly8DITAVX512(SB), NOSPLIT, $0-48
	PROLOGUE
	CMPQ R8, R9
	JAE  ditdone

ditloop:
	ADDRESS
	LOADLEGS

	// Span h on (0,1) (2,3) (4,5) (6,7), all by w1.
	TWIDDLE(0, Z9, Z10)
	CMUL(Z1, Z9, Z10)
	CMUL(Z3, Z9, Z10)
	CMUL(Z5, Z9, Z10)
	CMUL(Z7, Z9, Z10)
	BFLY(Z0, Z1, Z8)
	BFLY(Z2, Z3, Z1)
	BFLY(Z4, Z5, Z3)
	BFLY(Z6, Z7, Z5)

	// Legs 0-7 are now Z0 Z8 Z2 Z1 Z4 Z3 Z6 Z5. Span 2h: w2a, and w2b = a
	// quarter turn of it.
	TWIDDLE(64, Z9, Z10)
	CMUL(Z2, Z9, Z10)
	CMUL(Z1, Z9, Z10)
	ROT(Z1)
	CMUL(Z6, Z9, Z10)
	CMUL(Z5, Z9, Z10)
	ROT(Z5)
	BFLY(Z0, Z2, Z7)
	BFLY(Z8, Z1, Z2)
	BFLY(Z4, Z6, Z1)
	BFLY(Z3, Z5, Z6)

	// Legs 0-7 are now Z0 Z8 Z7 Z2 Z4 Z3 Z1 Z6. Span 4h: w3a, w3b and
	// their quarter turns.
	TWIDDLE(128, Z9, Z10)
	TWIDDLE(192, Z11, Z12)
	CMUL(Z4, Z9, Z10)
	CMUL(Z3, Z11, Z12)
	CMUL(Z1, Z9, Z10)
	ROT(Z1)
	CMUL(Z6, Z11, Z12)
	ROT(Z6)
	BFLY(Z0, Z4, Z5)
	BFLY(Z8, Z3, Z4)
	BFLY(Z7, Z1, Z3)
	BFLY(Z2, Z6, Z1)

	STORELEGS(Z0, Z8, Z7, Z2, Z5, Z4, Z3, Z1)

	ADDQ $4, R8
	CMPQ R8, R9
	JB   ditloop

ditdone:
	VZEROUPPER
	RET

// func butterfly8DIFAVX512(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)
//
// Decimation in frequency, the transpose: spans 4h, 2h, h, the twiddle
// applied to the difference.
TEXT ·butterfly8DIFAVX512(SB), NOSPLIT, $0-48
	PROLOGUE
	CMPQ R8, R9
	JAE  difdone

difloop:
	ADDRESS
	LOADLEGS

	// Span 4h on (0,4) (1,5) (2,6) (3,7).
	TWIDDLE(128, Z9, Z10)
	TWIDDLE(192, Z11, Z12)
	BFLY(Z0, Z4, Z8)
	CMUL(Z8, Z9, Z10)
	BFLY(Z1, Z5, Z4)
	CMUL(Z4, Z11, Z12)
	BFLY(Z2, Z6, Z5)
	ROT(Z5)
	CMUL(Z5, Z9, Z10)
	BFLY(Z3, Z7, Z6)
	ROT(Z6)
	CMUL(Z6, Z11, Z12)

	// Legs 0-7 are now Z0 Z1 Z2 Z3 Z8 Z4 Z5 Z6. Span 2h.
	TWIDDLE(64, Z9, Z10)
	BFLY(Z0, Z2, Z7)
	CMUL(Z7, Z9, Z10)
	BFLY(Z1, Z3, Z2)
	ROT(Z2)
	CMUL(Z2, Z9, Z10)
	BFLY(Z8, Z5, Z3)
	CMUL(Z3, Z9, Z10)
	BFLY(Z4, Z6, Z5)
	ROT(Z5)
	CMUL(Z5, Z9, Z10)

	// Legs 0-7 are now Z0 Z1 Z7 Z2 Z8 Z4 Z3 Z5. Span h.
	TWIDDLE(0, Z9, Z10)
	BFLY(Z0, Z1, Z6)
	CMUL(Z6, Z9, Z10)
	BFLY(Z7, Z2, Z1)
	CMUL(Z1, Z9, Z10)
	BFLY(Z8, Z4, Z2)
	CMUL(Z2, Z9, Z10)
	BFLY(Z3, Z5, Z4)
	CMUL(Z4, Z9, Z10)

	STORELEGS(Z0, Z6, Z7, Z1, Z8, Z2, Z3, Z4)

	ADDQ $4, R8
	CMPQ R8, R9
	JB   difloop

difdone:
	VZEROUPPER
	RET
