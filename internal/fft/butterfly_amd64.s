// AVX2/FMA body of the radix-8 butterflies; see butterfly_amd64.go for
// the contract and the package comment ("Bodies") for the design.

#include "textflag.h"

// Both loops step the flat butterfly index t (R8) by two up to hi (R9):
// offset j = t & (h-1), first leg i0 = (t-j)<<3 | j, legs h apart. One
// YMM register holds the same leg of the butterflies at offsets j and
// j+1 — adjacent amplitudes, since j is even and h >= 2 — and one run of
// the packed table (128 bytes at tw + 64 j) holds their four stored
// twiddles, each as a [re_j, im_j, re_j+1, im_j+1] quadruple.
//
// Registers: AX data, BX tw, R10 h-1, R11 the leg stride in bytes, R12
// three strides; per iteration DX/SI the addresses of legs 0 and 4, DI
// the table run. Y0-Y8 hold the eight legs and one spare that rotates
// through them (a butterfly writes its difference to the spare and frees
// an input); Y9/Y10 and Y11/Y12 the duplicated real and imaginary parts
// of up to two twiddles, Y13 the multiply's scratch, Y14 the conjugation
// mask and Y15 the quarter-turn mask (directionMasks).

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
	VMOVUPD (DX), Y0         \
	VMOVUPD (DX)(R11*1), Y1  \
	VMOVUPD (DX)(R11*2), Y2  \
	VMOVUPD (DX)(R12*1), Y3  \
	VMOVUPD (SI), Y4         \
	VMOVUPD (SI)(R11*1), Y5  \
	VMOVUPD (SI)(R11*2), Y6  \
	VMOVUPD (SI)(R12*1), Y7

// TWIDDLE splits the twiddle quadruple at off(DI) into its duplicated
// real parts (re) and duplicated, direction-signed imaginary parts (im).
#define TWIDDLE(off, re, im) \
	VMOVDDUP  off(DI), re     \
	VPERMILPD $15, off(DI), im \
	VXORPD    Y14, im, im

// CMUL multiplies x by the twiddle (re, im) in place:
// [xr*wr - xi*wi, xi*wr + xr*wi].
#define CMUL(x, re, im) \
	VPERMILPD      $5, x, Y13 \
	VMULPD         im, Y13, Y13 \
	VFMADDSUB213PD Y13, re, x

// ROT turns x a quarter in the direction's sense, in place.
#define ROT(x) \
	VPERMILPD $5, x, x \
	VXORPD    Y15, x, x

// BFLY leaves u+t in u and u-t in the spare; t is the new spare.
#define BFLY(u, t, spare) \
	VSUBPD t, u, spare \
	VADDPD t, u, u

// func butterfly8DITAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)
//
// Decimation in time: spans h, 2h, 4h, the twiddle applied to the second
// input of each butterfly before the add/subtract.
TEXT ·butterfly8DITAVX2(SB), NOSPLIT, $0-48
	MOVQ    data+0(FP), AX
	MOVQ    tw+8(FP), BX
	MOVQ    masks+16(FP), CX
	VMOVUPD (CX), Y14
	VMOVUPD 32(CX), Y15
	MOVQ    h+24(FP), R11
	LEAQ    -1(R11), R10
	SHLQ    $4, R11
	LEAQ    (R11)(R11*2), R12
	MOVQ    lo+32(FP), R8
	MOVQ    hi+40(FP), R9
	CMPQ R8, R9
	JAE  ditdone

ditloop:
	ADDRESS
	LOADLEGS

	// Span h on (0,1) (2,3) (4,5) (6,7), all by w1.
	TWIDDLE(0, Y9, Y10)
	CMUL(Y1, Y9, Y10)
	CMUL(Y3, Y9, Y10)
	CMUL(Y5, Y9, Y10)
	CMUL(Y7, Y9, Y10)
	BFLY(Y0, Y1, Y8)
	BFLY(Y2, Y3, Y1)
	BFLY(Y4, Y5, Y3)
	BFLY(Y6, Y7, Y5)

	// Legs 0-7 are now Y0 Y8 Y2 Y1 Y4 Y3 Y6 Y5. Span 2h on (0,2) (1,3)
	// (4,6) (5,7): w2a, and w2b = a quarter turn of it.
	TWIDDLE(32, Y9, Y10)
	CMUL(Y2, Y9, Y10)
	CMUL(Y1, Y9, Y10)
	ROT(Y1)
	CMUL(Y6, Y9, Y10)
	CMUL(Y5, Y9, Y10)
	ROT(Y5)
	BFLY(Y0, Y2, Y7)
	BFLY(Y8, Y1, Y2)
	BFLY(Y4, Y6, Y1)
	BFLY(Y3, Y5, Y6)

	// Legs 0-7 are now Y0 Y8 Y7 Y2 Y4 Y3 Y1 Y6. Span 4h on (0,4) (1,5)
	// (2,6) (3,7): w3a, w3b and their quarter turns.
	TWIDDLE(64, Y9, Y10)
	TWIDDLE(96, Y11, Y12)
	CMUL(Y4, Y9, Y10)
	CMUL(Y3, Y11, Y12)
	CMUL(Y1, Y9, Y10)
	ROT(Y1)
	CMUL(Y6, Y11, Y12)
	ROT(Y6)
	BFLY(Y0, Y4, Y5)
	BFLY(Y8, Y3, Y4)
	BFLY(Y7, Y1, Y3)
	BFLY(Y2, Y6, Y1)

	// Legs 0-7 are now Y0 Y8 Y7 Y2 Y5 Y4 Y3 Y1.
	VMOVUPD Y0, (DX)
	VMOVUPD Y8, (DX)(R11*1)
	VMOVUPD Y7, (DX)(R11*2)
	VMOVUPD Y2, (DX)(R12*1)
	VMOVUPD Y5, (SI)
	VMOVUPD Y4, (SI)(R11*1)
	VMOVUPD Y3, (SI)(R11*2)
	VMOVUPD Y1, (SI)(R12*1)

	ADDQ $2, R8
	CMPQ R8, R9
	JB   ditloop

ditdone:
	VZEROUPPER
	RET

// func butterfly8DIFAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)
//
// Decimation in frequency, the transpose: spans 4h, 2h, h, the twiddle
// applied to the difference.
TEXT ·butterfly8DIFAVX2(SB), NOSPLIT, $0-48
	MOVQ    data+0(FP), AX
	MOVQ    tw+8(FP), BX
	MOVQ    masks+16(FP), CX
	VMOVUPD (CX), Y14
	VMOVUPD 32(CX), Y15
	MOVQ    h+24(FP), R11
	LEAQ    -1(R11), R10
	SHLQ    $4, R11
	LEAQ    (R11)(R11*2), R12
	MOVQ    lo+32(FP), R8
	MOVQ    hi+40(FP), R9
	CMPQ R8, R9
	JAE  difdone

difloop:
	ADDRESS
	LOADLEGS

	// Span 4h on (0,4) (1,5) (2,6) (3,7).
	TWIDDLE(64, Y9, Y10)
	TWIDDLE(96, Y11, Y12)
	BFLY(Y0, Y4, Y8)
	CMUL(Y8, Y9, Y10)
	BFLY(Y1, Y5, Y4)
	CMUL(Y4, Y11, Y12)
	BFLY(Y2, Y6, Y5)
	ROT(Y5)
	CMUL(Y5, Y9, Y10)
	BFLY(Y3, Y7, Y6)
	ROT(Y6)
	CMUL(Y6, Y11, Y12)

	// Legs 0-7 are now Y0 Y1 Y2 Y3 Y8 Y4 Y5 Y6. Span 2h on (0,2) (1,3)
	// (4,6) (5,7).
	TWIDDLE(32, Y9, Y10)
	BFLY(Y0, Y2, Y7)
	CMUL(Y7, Y9, Y10)
	BFLY(Y1, Y3, Y2)
	ROT(Y2)
	CMUL(Y2, Y9, Y10)
	BFLY(Y8, Y5, Y3)
	CMUL(Y3, Y9, Y10)
	BFLY(Y4, Y6, Y5)
	ROT(Y5)
	CMUL(Y5, Y9, Y10)

	// Legs 0-7 are now Y0 Y1 Y7 Y2 Y8 Y4 Y3 Y5. Span h on (0,1) (2,3)
	// (4,5) (6,7).
	TWIDDLE(0, Y9, Y10)
	BFLY(Y0, Y1, Y6)
	CMUL(Y6, Y9, Y10)
	BFLY(Y7, Y2, Y1)
	CMUL(Y1, Y9, Y10)
	BFLY(Y8, Y4, Y2)
	CMUL(Y2, Y9, Y10)
	BFLY(Y3, Y5, Y4)
	CMUL(Y4, Y9, Y10)

	// Legs 0-7 are now Y0 Y6 Y7 Y1 Y8 Y2 Y3 Y4.
	VMOVUPD Y0, (DX)
	VMOVUPD Y6, (DX)(R11*1)
	VMOVUPD Y7, (DX)(R11*2)
	VMOVUPD Y1, (DX)(R12*1)
	VMOVUPD Y8, (SI)
	VMOVUPD Y2, (SI)(R11*1)
	VMOVUPD Y3, (SI)(R11*2)
	VMOVUPD Y4, (SI)(R12*1)

	ADDQ $2, R8
	CMPQ R8, R9
	JB   difloop

difdone:
	VZEROUPPER
	RET
