// AVX2/FMA body of the dense 2^w-block sweep; see dense_amd64.go for the
// contract and the package comment ("Kernel bodies") for the design.

#include "textflag.h"

// func denseSweepAVX2(amp, m *complex128, offs *uint64, dim, qmask, base, count uint64)
//
// Applies the dim x dim row-major matrix m to count consecutive groups of
// the amplitude array, starting at the group whose base index is base.
// offs[x] is the index offset of local basis state x and qmask the index
// mask of the block's qubits, so the group after base is
// ((base | qmask) + 1) &^ qmask. dim is a power of two in [4, 256] and
// count >= 1. Nothing is bounds-checked here: the caller has validated
// the qubits against the register and count against the number of groups.
//
// Two groups are processed per pass, one per 128-bit lane: a gathered
// amplitude pair is [re0, im0, re1, im1]. For a matrix entry a+ib and a
// gathered v the two halves of the product accumulate separately,
//
//	accA += [a,a,a,a] * v          = [a*re, a*im, ...]
//	accB += [b,b,b,b] * swap(v)    = [b*im, b*re, ...]
//
// and VADDSUBPD folds them: re = accA.re - accB.re, im = accA.im + accB.im.
// Four rows at a time makes eight independent FMA chains. The gathered
// tile lives in the frame (dim * 32 bytes, 32-byte aligned), so the
// in-place scatter of one row block cannot clobber the inputs of the
// next. An odd trailing group runs with both lanes on the same group: it
// computes and stores the same values twice.
//
// Registers: AX amp, DI/R9 addresses of the two groups' base amplitudes,
// R10 tile, BX tile end, R11 matrix row stride in bytes, R13/DX row
// pointers (rows r and r+2), SI tile cursor, CX offs cursor, R12 rows
// left, R8 scratch.
TEXT ·denseSweepAVX2(SB), 0, $8224-56
	MOVQ amp+0(FP), AX
	MOVQ base+40(FP), DI
	SHLQ $4, DI
	ADDQ AX, DI
	SHLQ $4, qmask+32(FP)
	MOVQ dim+24(FP), R11
	SHLQ $4, R11
	LEAQ 31(SP), R10
	ANDQ $-32, R10
	LEAQ (R10)(R11*2), BX

pair:
	// Second lane: the next group, or the same one when only one is left.
	MOVQ DI, R9
	CMPQ count+48(FP), $1
	JE   gather
	MOVQ qmask+32(FP), R8
	SUBQ AX, R9
	ORQ  R8, R9
	ADDQ $16, R9
	NOTQ R8
	ANDQ R8, R9
	ADDQ AX, R9

gather:
	MOVQ offs+16(FP), CX
	MOVQ R10, SI

gatherloop:
	// The prefetch reaches four cache lines (eight group pairs, while the
	// counter's low bits are contiguous) ahead on each of the block's dim
	// streams: the arithmetic of one pass fills the reorder window, so
	// without it the next pass's gathers start cold. It never faults, so
	// running past the chunk or the array is harmless.
	MOVQ        (CX), R8
	SHLQ        $4, R8
	VMOVUPD     (DI)(R8*1), X8
	VINSERTF128 $1, (R9)(R8*1), Y8, Y8
	PREFETCHT0  256(DI)(R8*1)
	VMOVAPD     Y8, (SI)
	ADDQ        $8, CX
	ADDQ        $32, SI
	CMPQ        SI, BX
	JB          gatherloop

	MOVQ m+8(FP), R13
	MOVQ offs+16(FP), CX
	MOVQ dim+24(FP), R12

rowblock:
	LEAQ   (R13)(R11*2), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R10, SI

column:
	VMOVAPD      (SI), Y8
	VPERMILPD    $5, Y8, Y9
	VBROADCASTSD (R13), Y10
	VBROADCASTSD 8(R13), Y11
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y11, Y9, Y1
	VBROADCASTSD (R13)(R11*1), Y12
	VBROADCASTSD 8(R13)(R11*1), Y13
	VFMADD231PD  Y12, Y8, Y2
	VFMADD231PD  Y13, Y9, Y3
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y11, Y9, Y5
	VBROADCASTSD (DX)(R11*1), Y12
	VBROADCASTSD 8(DX)(R11*1), Y13
	VFMADD231PD  Y12, Y8, Y6
	VFMADD231PD  Y13, Y9, Y7
	ADDQ         $16, R13
	ADDQ         $16, DX
	ADDQ         $32, SI
	CMPQ         SI, BX
	JB           column

	VADDSUBPD Y1, Y0, Y0
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y5, Y4, Y4
	VADDSUBPD Y7, Y6, Y6

	// Scatter the four finished rows of both groups.
	MOVQ         (CX), R8
	SHLQ         $4, R8
	VMOVUPD      X0, (DI)(R8*1)
	VEXTRACTF128 $1, Y0, (R9)(R8*1)
	MOVQ         8(CX), R8
	SHLQ         $4, R8
	VMOVUPD      X2, (DI)(R8*1)
	VEXTRACTF128 $1, Y2, (R9)(R8*1)
	MOVQ         16(CX), R8
	SHLQ         $4, R8
	VMOVUPD      X4, (DI)(R8*1)
	VEXTRACTF128 $1, Y4, (R9)(R8*1)
	MOVQ         24(CX), R8
	SHLQ         $4, R8
	VMOVUPD      X6, (DI)(R8*1)
	VEXTRACTF128 $1, Y6, (R9)(R8*1)
	ADDQ         $32, CX

	// R13 has walked one row; three more strides reach row r+4.
	LEAQ (R13)(R11*2), R13
	ADDQ R11, R13
	SUBQ $4, R12
	JNZ  rowblock

	MOVQ count+48(FP), R8
	SUBQ $2, R8
	JLE  done
	MOVQ R8, count+48(FP)
	MOVQ qmask+32(FP), R8
	MOVQ R9, DI
	SUBQ AX, DI
	ORQ  R8, DI
	ADDQ $16, DI
	NOTQ R8
	ANDQ R8, DI
	ADDQ AX, DI
	JMP  pair

done:
	VZEROUPPER
	RET
