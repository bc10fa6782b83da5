// AVX2/FMA bodies of the radix-8 and radix-4 heads, the span-one groups;
// see headAsm in butterfly_amd64.go for the contract and head8/head4 in
// butterfly.go for the arithmetic they vectorise.

#include "textflag.h"

// Every loop steps the butterfly index t (R8) by two up to hi (R9), DX at
// butterflies t and t+1: eight adjacent amplitudes each at radix 8 (256
// bytes), four at radix 4 (128). One YMM register holds the same leg of
// the two, lane 0 from t and lane 1 from t+1, so the butterflies are those
// of butterfly_amd64.s with every twiddle but W_8 folded away.
//
// Registers: AX data, Y0-Y8 the legs and one spare that rotates through
// them (as in butterfly_amd64.s), Y9/Y10 the duplicated real and
// direction-signed imaginary part of W_8 (radix 8), Y11 the scale, Y13
// the multiply's scratch, Y14 the conjugation mask and Y15 the
// quarter-turn mask (directionMasks).

// LEG loads leg k of both butterflies: the 16 bytes at off from t's, the
// 16 at off+128 into the upper lane.
#define LEG(y, x, off) \
	VMOVUPD     off(DX), x \
	VINSERTF128 $1, (off+128)(DX), y, y

// LEG4 and PUT4 are LEG and PUT for the radix-4 head, whose butterflies
// are 64 bytes apart.
#define LEG4(y, x, off) \
	VMOVUPD     off(DX), x \
	VINSERTF128 $1, (off+64)(DX), y, y

#define PUT4(y, x, off) \
	VMULPD       Y11, y, y \
	VMOVUPD      x, off(DX) \
	VEXTRACTF128 $1, y, (off+64)(DX)

#define LOADLEGS \
	LEG(Y0, X0, 0)  \
	LEG(Y1, X1, 16) \
	LEG(Y2, X2, 32) \
	LEG(Y3, X3, 48) \
	LEG(Y4, X4, 64) \
	LEG(Y5, X5, 80) \
	LEG(Y6, X6, 96) \
	LEG(Y7, X7, 112)

// PUT stores leg k of both butterflies back, scaled.
#define PUT(y, x, off) \
	VMULPD       Y11, y, y \
	VMOVUPD      x, off(DX) \
	VEXTRACTF128 $1, y, (off+128)(DX)

// CMUL multiplies x by W_8 (Y9, Y10) in place:
// [xr*wr - xi*wi, xi*wr + xr*wi].
#define CMUL(x) \
	VPERMILPD      $5, x, Y13 \
	VMULPD         Y10, Y13, Y13 \
	VFMADDSUB213PD Y13, Y9, x

// ROT turns x a quarter in the direction's sense, in place.
#define ROT(x) \
	VPERMILPD $5, x, x \
	VXORPD    Y15, x, x

// BFLY leaves u+t in u and u-t in the spare; t is the new spare.
#define BFLY(u, t, spare) \
	VSUBPD t, u, spare \
	VADDPD t, u, u

// SETUP loads the masks and the scale, DX at butterfly lo of the radix
// 2^shift head.
#define SETUP(shift) \
	MOVQ         data+0(FP), AX    \
	MOVQ         masks+16(FP), CX  \
	VMOVUPD      (CX), Y14         \
	VMOVUPD      32(CX), Y15       \
	VBROADCASTSD scale+24(FP), Y11 \
	MOVQ         lo+32(FP), R8     \
	MOVQ         hi+40(FP), R9     \
	MOVQ         R8, DX            \
	SHLQ         $shift, DX        \
	ADDQ         AX, DX

// W8 loads W_8 from w, conjugated when the conjugation mask says so.
#define W8 \
	MOVQ         w+8(FP), BX   \
	VBROADCASTSD (BX), Y9      \
	VBROADCASTSD 8(BX), Y10    \
	VXORPD       Y14, Y10, Y10

// func head8DITAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)
//
// Decimation in time: spans 1, 2, 4; W_8 multiplies leg 5 and, a quarter
// turned, leg 7 before the last add/subtract.
TEXT ·head8DITAVX2(SB), NOSPLIT, $0-48
	SETUP(7)
	W8
	CMPQ R8, R9
	JAE  ditdone

ditloop:
	LOADLEGS

	// Span 1 on (0,1) (2,3) (4,5) (6,7).
	BFLY(Y0, Y1, Y8)
	BFLY(Y2, Y3, Y1)
	BFLY(Y4, Y5, Y3)
	BFLY(Y6, Y7, Y5)

	// Legs 0-7 are now Y0 Y8 Y2 Y1 Y4 Y3 Y6 Y5. Span 2 on (0,2) (1,3)
	// (4,6) (5,7), the odd pairs' second input turned a quarter.
	BFLY(Y0, Y2, Y7)
	ROT(Y1)
	BFLY(Y8, Y1, Y2)
	BFLY(Y4, Y6, Y1)
	ROT(Y5)
	BFLY(Y3, Y5, Y6)

	// Legs 0-7 are now Y0 Y8 Y7 Y2 Y4 Y3 Y1 Y6. Span 4 on (0,4) (1,5)
	// (2,6) (3,7): 1, W_8, i, i·W_8.
	BFLY(Y0, Y4, Y5)
	CMUL(Y3)
	BFLY(Y8, Y3, Y4)
	ROT(Y1)
	BFLY(Y7, Y1, Y3)
	CMUL(Y6)
	ROT(Y6)
	BFLY(Y2, Y6, Y1)

	// Legs 0-7 are now Y0 Y8 Y7 Y2 Y5 Y4 Y3 Y1.
	PUT(Y0, X0, 0)
	PUT(Y8, X8, 16)
	PUT(Y7, X7, 32)
	PUT(Y2, X2, 48)
	PUT(Y5, X5, 64)
	PUT(Y4, X4, 80)
	PUT(Y3, X3, 96)
	PUT(Y1, X1, 112)

	ADDQ $256, DX
	ADDQ $2, R8
	CMPQ R8, R9
	JB   ditloop

ditdone:
	VZEROUPPER
	RET

// func head8DIFAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)
//
// Decimation in frequency, the transpose: spans 4, 2, 1, W_8 on the
// differences of legs 1 and 5 and, after its quarter turn, 3 and 7.
TEXT ·head8DIFAVX2(SB), NOSPLIT, $0-48
	SETUP(7)
	W8
	CMPQ R8, R9
	JAE  difdone

difloop:
	LOADLEGS

	// Span 4 on (0,4) (1,5) (2,6) (3,7): 1, W_8, i, i·W_8.
	BFLY(Y0, Y4, Y8)
	BFLY(Y1, Y5, Y4)
	CMUL(Y4)
	BFLY(Y2, Y6, Y5)
	ROT(Y5)
	BFLY(Y3, Y7, Y6)
	ROT(Y6)
	CMUL(Y6)

	// Legs 0-7 are now Y0 Y1 Y2 Y3 Y8 Y4 Y5 Y6. Span 2 on (0,2) (1,3)
	// (4,6) (5,7), the odd pairs' difference turned a quarter.
	BFLY(Y0, Y2, Y7)
	BFLY(Y1, Y3, Y2)
	ROT(Y2)
	BFLY(Y8, Y5, Y3)
	BFLY(Y4, Y6, Y5)
	ROT(Y5)

	// Legs 0-7 are now Y0 Y1 Y7 Y2 Y8 Y4 Y3 Y5. Span 1 on (0,1) (2,3)
	// (4,5) (6,7).
	BFLY(Y0, Y1, Y6)
	BFLY(Y7, Y2, Y1)
	BFLY(Y8, Y4, Y2)
	BFLY(Y3, Y5, Y4)

	// Legs 0-7 are now Y0 Y6 Y7 Y1 Y8 Y2 Y3 Y4.
	PUT(Y0, X0, 0)
	PUT(Y6, X6, 16)
	PUT(Y7, X7, 32)
	PUT(Y1, X1, 48)
	PUT(Y8, X8, 64)
	PUT(Y2, X2, 80)
	PUT(Y3, X3, 96)
	PUT(Y4, X4, 112)

	ADDQ $256, DX
	ADDQ $2, R8
	CMPQ R8, R9
	JB   difloop

difdone:
	VZEROUPPER
	RET

// func head4DITAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)
//
// The radix-4 head, decimation in time: spans 1 and 2, leg 3 turned a
// quarter before the second. w is not read.
TEXT ·head4DITAVX2(SB), NOSPLIT, $0-48
	SETUP(6)
	CMPQ R8, R9
	JAE  dit4done

dit4loop:
	LEG4(Y0, X0, 0)
	LEG4(Y1, X1, 16)
	LEG4(Y2, X2, 32)
	LEG4(Y3, X3, 48)
	BFLY(Y0, Y1, Y4)
	BFLY(Y2, Y3, Y1)
	ROT(Y1)

	// Legs 0-3 are now Y0 Y4 Y2 Y1.
	BFLY(Y0, Y2, Y3)
	BFLY(Y4, Y1, Y2)

	// Legs 0-3 are now Y0 Y4 Y3 Y2.
	PUT4(Y0, X0, 0)
	PUT4(Y4, X4, 16)
	PUT4(Y3, X3, 32)
	PUT4(Y2, X2, 48)

	ADDQ $128, DX
	ADDQ $2, R8
	CMPQ R8, R9
	JB   dit4loop

dit4done:
	VZEROUPPER
	RET

// func head4DIFAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)
//
// The radix-4 head, decimation in frequency: spans 2 and 1, the
// difference of legs 1 and 3 turned a quarter. w is not read.
TEXT ·head4DIFAVX2(SB), NOSPLIT, $0-48
	SETUP(6)
	CMPQ R8, R9
	JAE  dif4done

dif4loop:
	LEG4(Y0, X0, 0)
	LEG4(Y1, X1, 16)
	LEG4(Y2, X2, 32)
	LEG4(Y3, X3, 48)
	BFLY(Y0, Y2, Y4)
	BFLY(Y1, Y3, Y2)
	ROT(Y2)

	// Legs 0-3 are now Y0 Y1 Y4 Y2.
	BFLY(Y0, Y1, Y3)
	BFLY(Y4, Y2, Y1)

	// Legs 0-3 are now Y0 Y3 Y4 Y1.
	PUT4(Y0, X0, 0)
	PUT4(Y3, X3, 16)
	PUT4(Y4, X4, 32)
	PUT4(Y1, X1, 48)

	ADDQ $128, DX
	ADDQ $2, R8
	CMPQ R8, R9
	JB   dif4loop

dif4done:
	VZEROUPPER
	RET
