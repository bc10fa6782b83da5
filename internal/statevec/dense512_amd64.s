// AVX-512 body of the dense 2^w-block sweep; see dense_amd64.go for the
// contract and the package comment ("Kernel bodies") for the design.

#include "textflag.h"

// func denseSweepAVX512(amp, m *complex128, offs *uint64, dim, qmask, base, count uint64)
//
// The algorithm, the arguments and the absence of bounds checks are
// denseSweepAVX2's (dense_amd64.s); count must be a positive multiple of
// 4. Four groups are processed per pass, one per 128-bit lane of a ZMM
// register: a gathered amplitude quad is [re0, im0, ..., re3, im3] and the
// tile in the frame is dim * 64 bytes, 64-byte aligned. For a matrix
// entry a+ib and a gathered v,
//
//	accA += [a,...,a] * v    = [a*re, a*im, ...]
//	accB += [b,...,b] * v    = [b*re, b*im, ...]
//
// with a and b riding on the FMAs as embedded broadcasts, four rows at a
// time (eight chains: two FMAs a cycle at latency four). The AVX2 body
// multiplies b into swap(v) at every column; here accB's pairs are swapped
// once per row instead, which leaves the same sums of the same products in
// the same lanes. The fold is one VFMADDSUB231PD against a register of
// ones (EVEX has no VADDSUBPD): 1 * accA -/+ swap(accB), the product exact
// and the sum rounded once, so re = accA.re - accB.im and im = accA.im +
// accB.re carry the bits VADDSUBPD gives. AVX512F encodings only: the
// lane moves are the F32X4 forms, and the zeroing is VEX, which clears the
// whole register.
//
// When neither qubit 0 nor qubit 1 is in the block and base is a multiple
// of 4, the four groups of a pass are the four amplitudes of one aligned
// 64-byte run, for every local state and on every pass (stepping four
// groups carries out of bits 0-1 into the same counter). Gather and
// scatter are then one ZMM move each instead of four lane moves, and R9,
// otherwise the second group's address and never zero, is the flag. The
// benchmark's fused circuits send 74-89% of their dense amplitudes this
// way (49% under noise), worth 4-8% of a whole run (CHANGES.md, PR 21).
//
// Registers: AX amp, DI/R9/R14/R15 addresses of the four groups' base
// amplitudes, R10 tile, BX tile end, R11 matrix row stride in bytes,
// R13/DX row pointers (rows r and r+2), SI tile cursor, CX offs cursor,
// R12 rows left (and the inverted mask while stepping groups), R8
// scratch, Z31 ones.
TEXT ·denseSweepAVX512(SB), 0, $16448-56
	MOVQ         amp+0(FP), AX
	MOVQ         base+40(FP), DI
	SHLQ         $4, DI
	ADDQ         AX, DI
	SHLQ         $4, qmask+32(FP)
	MOVQ         dim+24(FP), R11
	SHLQ         $4, R11
	LEAQ         63(SP), R10
	ANDQ         $-64, R10
	LEAQ         (R10)(R11*4), BX
	MOVQ         $0x3FF0000000000000, R8
	MOVQ         R8, (R10)
	VBROADCASTSD (R10), Z31

	// One run per pass iff bits 0-1 of the mask and of base are clear.
	XORQ  R9, R9
	MOVQ  DI, R8
	SUBQ  AX, R8
	ORQ   qmask+32(FP), R8
	TESTQ $0x30, R8
	JZ    gather

quad:
	// Lanes 1-3: the three groups after DI's.
	MOVQ qmask+32(FP), R8
	MOVQ R8, R12
	NOTQ R12
	MOVQ DI, R9
	SUBQ AX, R9
	ORQ  R8, R9
	ADDQ $16, R9
	ANDQ R12, R9
	MOVQ R9, R14
	ORQ  R8, R14
	ADDQ $16, R14
	ANDQ R12, R14
	MOVQ R14, R15
	ORQ  R8, R15
	ADDQ $16, R15
	ANDQ R12, R15
	ADDQ AX, R9
	ADDQ AX, R14
	ADDQ AX, R15

gather:
	MOVQ  offs+16(FP), CX
	MOVQ  R10, SI
	TESTQ R9, R9
	JZ    gatherrun

gatherlanes:
	// The prefetches play the part the AVX2 body's plays, as many passes
	// ahead: eight runs here, four below.
	MOVQ         (CX), R8
	SHLQ         $4, R8
	VMOVUPD      (DI)(R8*1), X8
	VINSERTF32X4 $1, (R9)(R8*1), Z8, Z8
	VINSERTF32X4 $2, (R14)(R8*1), Z8, Z8
	VINSERTF32X4 $3, (R15)(R8*1), Z8, Z8
	PREFETCHT0   512(DI)(R8*1)
	VMOVAPD      Z8, (SI)
	ADDQ         $8, CX
	ADDQ         $64, SI
	CMPQ         SI, BX
	JB           gatherlanes
	JMP          rows

gatherrun:
	MOVQ       (CX), R8
	SHLQ       $4, R8
	VMOVUPD    (DI)(R8*1), Z8
	PREFETCHT0 256(DI)(R8*1)
	VMOVAPD    Z8, (SI)
	ADDQ       $8, CX
	ADDQ       $64, SI
	CMPQ       SI, BX
	JB         gatherrun

rows:
	MOVQ m+8(FP), R13
	MOVQ offs+16(FP), CX
	MOVQ dim+24(FP), R12

rowblock:
	LEAQ   (R13)(R11*2), DX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	MOVQ   R10, SI

column:
	VMOVAPD          (SI), Z8
	VFMADD231PD.BCST (R13), Z8, Z0
	VFMADD231PD.BCST 8(R13), Z8, Z1
	VFMADD231PD.BCST (R13)(R11*1), Z8, Z2
	VFMADD231PD.BCST 8(R13)(R11*1), Z8, Z3
	VFMADD231PD.BCST (DX), Z8, Z4
	VFMADD231PD.BCST 8(DX), Z8, Z5
	VFMADD231PD.BCST (DX)(R11*1), Z8, Z6
	VFMADD231PD.BCST 8(DX)(R11*1), Z8, Z7
	ADDQ             $16, R13
	ADDQ             $16, DX
	ADDQ             $64, SI
	CMPQ             SI, BX
	JB               column

	VPERMILPD      $0x55, Z1, Z1
	VPERMILPD      $0x55, Z3, Z3
	VPERMILPD      $0x55, Z5, Z5
	VPERMILPD      $0x55, Z7, Z7
	VFMADDSUB231PD Z31, Z0, Z1
	VFMADDSUB231PD Z31, Z2, Z3
	VFMADDSUB231PD Z31, Z4, Z5
	VFMADDSUB231PD Z31, Z6, Z7

	// Scatter the four finished rows of the four groups.
	TESTQ         R9, R9
	JZ            scatterrun
	MOVQ          (CX), R8
	SHLQ          $4, R8
	VMOVUPD       X1, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z1, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z1, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z1, (R15)(R8*1)
	MOVQ          8(CX), R8
	SHLQ          $4, R8
	VMOVUPD       X3, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z3, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z3, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z3, (R15)(R8*1)
	MOVQ          16(CX), R8
	SHLQ          $4, R8
	VMOVUPD       X5, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z5, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z5, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z5, (R15)(R8*1)
	MOVQ          24(CX), R8
	SHLQ          $4, R8
	VMOVUPD       X7, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z7, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z7, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z7, (R15)(R8*1)
	JMP           nextrows

scatterrun:
	MOVQ    (CX), R8
	SHLQ    $4, R8
	VMOVUPD Z1, (DI)(R8*1)
	MOVQ    8(CX), R8
	SHLQ    $4, R8
	VMOVUPD Z3, (DI)(R8*1)
	MOVQ    16(CX), R8
	SHLQ    $4, R8
	VMOVUPD Z5, (DI)(R8*1)
	MOVQ    24(CX), R8
	SHLQ    $4, R8
	VMOVUPD Z7, (DI)(R8*1)

nextrows:
	ADDQ $32, CX

	// R13 has walked one row; three more strides reach row r+4.
	LEAQ (R13)(R11*2), R13
	ADDQ R11, R13
	SUBQ $4, R12
	JNZ  rowblock

	MOVQ  count+48(FP), R8
	SUBQ  $4, R8
	JLE   done
	MOVQ  R8, count+48(FP)
	MOVQ  qmask+32(FP), R8
	TESTQ R9, R9
	JZ    nextrun
	MOVQ  R15, DI
	SUBQ  AX, DI
	ORQ   R8, DI
	ADDQ  $16, DI
	NOTQ  R8
	ANDQ  R8, DI
	ADDQ  AX, DI
	JMP   quad

nextrun:
	SUBQ AX, DI
	ORQ  R8, DI
	ADDQ $64, DI
	NOTQ R8
	ANDQ R8, DI
	ADDQ AX, DI
	JMP  gather

done:
	VZEROUPPER
	RET
