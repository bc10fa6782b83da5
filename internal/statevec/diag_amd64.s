// AVX2 and AVX-512 bodies of the diagonal 2^w-block sweep; see
// diag_amd64.go for the contract and the package comment ("Kernel bodies")
// for the design.

#include "textflag.h"

// func diagSweepAVX2(amp, d *complex128, offs *uint64, dim, qmask, base, count uint64)
//
// Multiplies every amplitude of count consecutive groups, starting at the
// group whose base index is base, by d[x], x being its local basis state:
// amp[base|offs[x]] *= d[x]. The arguments are the dense sweep's
// (dense_amd64.s), with d in place of the matrix; count must be a positive
// multiple of 2, and nothing is bounds-checked. Two groups are processed
// per pass, one per 128-bit lane. For an amplitude a and an entry d the
// product is Go's complex multiply: re = a.re*d.re - a.im*d.im and im =
// a.re*d.im + a.im*d.re, each product rounded and then the sum, with no
// FMA. So [a.re*d.re, a.im*d.re] and swap(a)*d.im = [a.im*d.im, a.re*d.im]
// are two rounded products, and VADDSUBPD folds them with one rounding
// per component: the same bits as the pure-Go body.
//
// When qubit 0 is outside the block and base is even, the two groups of a
// pass are one 32-byte run for every local state, moved with one load and
// one store; R9, otherwise the second group's address and never zero, is
// the flag.
//
// Registers: AX amp, DI/R9 addresses of the two groups' base amplitudes,
// SI offs, BX offs end, CX offs cursor, DX diagonal cursor, R11 byte mask
// of the block, R12 its complement, R13 groups left, R8 scratch.
TEXT ·diagSweepAVX2(SB), NOSPLIT, $0-56
	MOVQ amp+0(FP), AX
	MOVQ base+40(FP), DI
	SHLQ $4, DI
	ADDQ AX, DI
	MOVQ qmask+32(FP), R11
	SHLQ $4, R11
	MOVQ R11, R12
	NOTQ R12
	MOVQ offs+16(FP), SI
	MOVQ dim+24(FP), BX
	LEAQ (SI)(BX*8), BX
	MOVQ count+48(FP), R13

	// One run per pass iff bit 0 of the mask and of base are clear.
	XORQ  R9, R9
	MOVQ  DI, R8
	SUBQ  AX, R8
	ORQ   R11, R8
	TESTQ $0x10, R8
	JZ    pass

pair:
	// Lane 1: the group after DI's.
	MOVQ DI, R9
	SUBQ AX, R9
	ORQ  R11, R9
	ADDQ $16, R9
	ANDQ R12, R9
	ADDQ AX, R9

pass:
	MOVQ  SI, CX
	MOVQ  d+8(FP), DX
	TESTQ R9, R9
	JZ    runloop

laneloop:
	MOVQ         (CX), R8
	SHLQ         $4, R8
	VMOVUPD      (DI)(R8*1), X8
	VINSERTF128  $1, (R9)(R8*1), Y8, Y8
	VPERMILPD    $5, Y8, Y9
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VMULPD       Y10, Y8, Y8
	VMULPD       Y11, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VMOVUPD      X8, (DI)(R8*1)
	VEXTRACTF128 $1, Y8, (R9)(R8*1)
	ADDQ         $8, CX
	ADDQ         $16, DX
	CMPQ         CX, BX
	JB           laneloop

	SUBQ $2, R13
	JZ   done
	MOVQ R9, DI
	SUBQ AX, DI
	ORQ  R11, DI
	ADDQ $16, DI
	ANDQ R12, DI
	ADDQ AX, DI
	JMP  pair

runloop:
	MOVQ         (CX), R8
	SHLQ         $4, R8
	VMOVUPD      (DI)(R8*1), Y8
	VPERMILPD    $5, Y8, Y9
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VMULPD       Y10, Y8, Y8
	VMULPD       Y11, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VMOVUPD      Y8, (DI)(R8*1)
	ADDQ         $8, CX
	ADDQ         $16, DX
	CMPQ         CX, BX
	JB           runloop

	// Two groups on: the low bit carries into the counter above it.
	SUBQ $2, R13
	JZ   done
	SUBQ AX, DI
	ORQ  R11, DI
	ADDQ $32, DI
	ANDQ R12, DI
	ADDQ AX, DI
	JMP  pass

done:
	VZEROUPPER
	RET

// func diagSweepAVX512(amp, d *complex128, offs *uint64, dim, qmask, base, count uint64)
//
// diagSweepAVX2 with four groups per pass, one per 128-bit lane of a ZMM
// register; count must be a positive multiple of 4. EVEX has no
// VADDSUBPD, so the fold flips the sign of the swapped product's real
// lanes (an exact XOR against Z30, [-0, +0] in every lane) and adds:
// a.re*d.re + -(a.im*d.im) is a.re*d.re - a.im*d.im to the bit. The d
// entries ride on the multiplies as embedded broadcasts. AVX512F encodings
// only: the lane moves are the F32X4 forms and the XOR is VPXORQ.
//
// When neither qubit 0 nor qubit 1 is in the block and base is a multiple
// of 4, the four groups of a pass are one aligned 64-byte run for every
// local state, as in the dense body, and move with one load and one store.
//
// Registers: diagSweepAVX2's, with R14/R15 the third and fourth groups'
// addresses.
TEXT ·diagSweepAVX512(SB), NOSPLIT, $16-56
	MOVQ            amp+0(FP), AX
	MOVQ            base+40(FP), DI
	SHLQ            $4, DI
	ADDQ            AX, DI
	MOVQ            qmask+32(FP), R11
	SHLQ            $4, R11
	MOVQ            R11, R12
	NOTQ            R12
	MOVQ            offs+16(FP), SI
	MOVQ            dim+24(FP), BX
	LEAQ            (SI)(BX*8), BX
	MOVQ            count+48(FP), R13
	MOVQ            $0x8000000000000000, R8
	MOVQ            R8, 0(SP)
	MOVQ            $0, 8(SP)
	VBROADCASTF32X4 0(SP), Z30

	// One run per pass iff bits 0-1 of the mask and of base are clear.
	XORQ  R9, R9
	MOVQ  DI, R8
	SUBQ  AX, R8
	ORQ   R11, R8
	TESTQ $0x30, R8
	JZ    pass

quad:
	// Lanes 1-3: the three groups after DI's.
	MOVQ DI, R9
	SUBQ AX, R9
	ORQ  R11, R9
	ADDQ $16, R9
	ANDQ R12, R9
	MOVQ R9, R14
	ORQ  R11, R14
	ADDQ $16, R14
	ANDQ R12, R14
	MOVQ R14, R15
	ORQ  R11, R15
	ADDQ $16, R15
	ANDQ R12, R15
	ADDQ AX, R9
	ADDQ AX, R14
	ADDQ AX, R15

pass:
	MOVQ  SI, CX
	MOVQ  d+8(FP), DX
	TESTQ R9, R9
	JZ    runloop

laneloop:
	MOVQ          (CX), R8
	SHLQ          $4, R8
	VMOVUPD       (DI)(R8*1), X8
	VINSERTF32X4  $1, (R9)(R8*1), Z8, Z8
	VINSERTF32X4  $2, (R14)(R8*1), Z8, Z8
	VINSERTF32X4  $3, (R15)(R8*1), Z8, Z8
	VPERMILPD     $0x55, Z8, Z9
	VMULPD.BCST   (DX), Z8, Z8
	VMULPD.BCST   8(DX), Z9, Z9
	VPXORQ        Z30, Z9, Z9
	VADDPD        Z9, Z8, Z8
	VMOVUPD       X8, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z8, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z8, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z8, (R15)(R8*1)
	ADDQ          $8, CX
	ADDQ          $16, DX
	CMPQ          CX, BX
	JB            laneloop

	SUBQ $4, R13
	JZ   done
	MOVQ R15, DI
	SUBQ AX, DI
	ORQ  R11, DI
	ADDQ $16, DI
	ANDQ R12, DI
	ADDQ AX, DI
	JMP  quad

runloop:
	MOVQ        (CX), R8
	SHLQ        $4, R8
	VMOVUPD     (DI)(R8*1), Z8
	VPERMILPD   $0x55, Z8, Z9
	VMULPD.BCST (DX), Z8, Z8
	VMULPD.BCST 8(DX), Z9, Z9
	VPXORQ      Z30, Z9, Z9
	VADDPD      Z9, Z8, Z8
	VMOVUPD     Z8, (DI)(R8*1)
	ADDQ        $8, CX
	ADDQ        $16, DX
	CMPQ        CX, BX
	JB          runloop

	// Four groups on: bits 0-1 carry into the counter above them.
	SUBQ $4, R13
	JZ   done
	SUBQ AX, DI
	ORQ  R11, DI
	ADDQ $64, DI
	ANDQ R12, DI
	ADDQ AX, DI
	JMP  pass

done:
	VZEROUPPER
	RET
