// AVX-512 body of the factored dense-block sweep; see dense_amd64.go for
// the contract and the package comment ("Kernel bodies") for the design.

#include "textflag.h"
#include "go_asm.h"

// Frame slots above the two tiles. The first three are the bases a pass
// names by number (passTileA, passTileB, passAmp).
#define bases      32832(SP)
#define groupAddr  32848(SP)
#define passesLeft 32856(SP)
#define lane1      32864(SP)
#define lane2      32872(SP)
#define lane3      32880(SP)
#define srcBase    32888(SP)
#define dstBase    32896(SP)

// COLUMNS multiplies the four gathered columns Z8-Z11 into the eight
// chains Z0-Z7 from one 256-byte stretch of the packed matrix at R13: per
// column a cache line, the four rows' [re, im] as embedded broadcasts.
// FIRST is the arithmetic of the first column of a row block, a multiply
// that starts the chains instead of a zeroing and a multiply-add.
#define COLUMN(FIRST, off, v) \
	FIRST off+0(R13), v, Z0;  \
	FIRST off+8(R13), v, Z1;  \
	FIRST off+16(R13), v, Z2; \
	FIRST off+24(R13), v, Z3; \
	FIRST off+32(R13), v, Z4; \
	FIRST off+40(R13), v, Z5; \
	FIRST off+48(R13), v, Z6; \
	FIRST off+56(R13), v, Z7

#define COLUMNS(FIRST) \
	COLUMN(FIRST, 0, Z8);               \
	COLUMN(VFMADD231PD.BCST, 64, Z9);   \
	COLUMN(VFMADD231PD.BCST, 128, Z10); \
	COLUMN(VFMADD231PD.BCST, 192, Z11); \
	ADDQ $256, R13

// func factorSweepAVX512(amp *complex128, offs *uint64, passes *factorPass, npasses, dim, qmask, base, count, lanes uint64)
//
// Applies the npasses Kronecker factors at passes, in order, to count
// consecutive groups of the amplitude array, starting at the group whose
// base index is base; count must be a positive multiple of 4. offs, dim,
// qmask and base mean what they mean to denseSweepAVX512, and as there
// four groups go through together, one per 128-bit lane: a slot is the ZMM
// that holds one local state's amplitude in the four groups, a tile 2^w
// slots in the frame. Nothing is bounds-checked: the caller has validated
// the qubits and the count, and every table comes from newFactorStep and
// factorPasses alone.
//
// A pass applies one factor: for every entry r of its rest tables, the 2^k
// slots at base + rest[r] + in[y] of the source are the factor's inputs
// and the same expression on the destination side names its outputs. The
// arithmetic is denseSweepAVX512's row block — eight chains, four rows at
// a time, the imaginary accumulators swapped once per row block and folded
// against the ones in Z31 — with three changes that cut the instructions
// around the multiply-adds, because at 2^k columns instead of 2^w the row
// block is too short to hide them. The matrix comes packed in the order
// the chains consume it, so one pointer walks it front to back. Columns go
// four at a time: in[y+1], in[y+2] and in[y+3] are in[y] plus the factor's
// two lowest strides and their sum, which stay in registers for the pass,
// so a quartet costs one table load. And the first column of a row block
// is a multiply, not a zeroing and a multiply-add. Source and destination
// are always different buffers — no row block can clobber the inputs of
// the next — and unaligned moves serve both kinds.
//
// With lanes zero the four groups of every pass-through are one 64-byte
// run per local state, and there is no gather and no scatter: the first
// pass reads the amplitude array, the last writes it, the ones between
// alternate between the tiles. With lanes nonzero the quad is gathered
// into tile A and scattered from the tile the last pass wrote, exactly as
// the dense body's lane path does it.
//
// Registers in a pass: AX the pass, R15 rest cursor, R9/R14 source and
// destination at rest[r], BX/DX/DI source strides, R10/R11/R12 destination
// strides, R13 matrix cursor, CX/SI byte cursors into the in tables
// (columns, rows), R8 scratch. Around the passes they are
// denseSweepAVX512's: AX amp, DI/R9/R14/R15 the four groups' addresses,
// which wait in the frame meanwhile.
TEXT ·factorSweepAVX512(SB), 0, $32912-72
	MOVQ         amp+0(FP), AX
	MOVQ         base+48(FP), DI
	SHLQ         $4, DI
	ADDQ         AX, DI
	SHLQ         $4, qmask+40(FP)
	SHLQ         $6, dim+32(FP)
	LEAQ         63(SP), R10
	ANDQ         $-64, R10
	MOVQ         R10, bases
	LEAQ         16384(R10), R8
	MOVQ         R8, 8+bases
	MOVQ         $0x3FF0000000000000, R8
	MOVQ         R8, (R10)
	VBROADCASTSD (R10), Z31

quad:
	MOVQ DI, groupAddr
	CMPQ lanes+64(FP), $0
	JNE  lanes

	// The prefetches of the dense body's run gather, as far ahead; the
	// lane gather below has its own.
	MOVQ offs+8(FP), CX
	MOVQ dim+32(FP), BX
	SHRQ $3, BX
	ADDQ CX, BX

prefetch:
	MOVQ       (CX), R8
	SHLQ       $4, R8
	PREFETCHT0 256(DI)(R8*1)
	ADDQ       $8, CX
	CMPQ       CX, BX
	JB         prefetch
	JMP        passes

lanes:

	// Lanes 1-3: the three groups after DI's.
	MOVQ qmask+40(FP), R8
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
	MOVQ R9, lane1
	MOVQ R14, lane2
	MOVQ R15, lane3

	MOVQ offs+8(FP), CX
	MOVQ bases, SI
	MOVQ dim+32(FP), BX
	ADDQ SI, BX

gather:
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
	JB           gather

passes:
	MOVQ passes+16(FP), AX
	MOVQ npasses+24(FP), R8
	MOVQ R8, passesLeft

pass:
	MOVQ factorPass_src(AX), R8
	MOVQ bases(R8*8), R8
	MOVQ R8, srcBase
	MOVQ factorPass_dst(AX), R8
	MOVQ bases(R8*8), R8
	MOVQ R8, dstBase
	MOVQ factorPass_srcIn(AX), R8
	MOVQ 8(R8), BX
	MOVQ 16(R8), DX
	MOVQ 24(R8), DI
	MOVQ factorPass_dstIn(AX), R8
	MOVQ 8(R8), R10
	MOVQ 16(R8), R11
	MOVQ 24(R8), R12
	XORQ R15, R15

rest:
	MOVQ factorPass_srcRest(AX), R8
	MOVQ (R8)(R15*1), R9
	ADDQ srcBase, R9
	MOVQ factorPass_dstRest(AX), R8
	MOVQ (R8)(R15*1), R14
	ADDQ dstBase, R14
	MOVQ factorPass_m(AX), R13
	XORQ SI, SI

rowblock:
	VMOVUPD (R9), Z8
	VMOVUPD (R9)(BX*1), Z9
	VMOVUPD (R9)(DX*1), Z10
	VMOVUPD (R9)(DI*1), Z11
	COLUMNS(VMULPD.BCST)
	MOVQ    $32, CX
	CMPQ    CX, factorPass_inBytes(AX)
	JAE     fold

columns:
	MOVQ    factorPass_srcIn(AX), R8
	MOVQ    (R8)(CX*1), R8
	ADDQ    R9, R8
	VMOVUPD (R8), Z8
	VMOVUPD (R8)(BX*1), Z9
	VMOVUPD (R8)(DX*1), Z10
	VMOVUPD (R8)(DI*1), Z11
	COLUMNS(VFMADD231PD.BCST)
	ADDQ    $32, CX
	CMPQ    CX, factorPass_inBytes(AX)
	JB      columns

fold:
	VPERMILPD      $0x55, Z1, Z1
	VPERMILPD      $0x55, Z3, Z3
	VPERMILPD      $0x55, Z5, Z5
	VPERMILPD      $0x55, Z7, Z7
	VFMADDSUB231PD Z31, Z0, Z1
	VFMADDSUB231PD Z31, Z2, Z3
	VFMADDSUB231PD Z31, Z4, Z5
	VFMADDSUB231PD Z31, Z6, Z7

	// The four finished rows go to their slots on the destination side.
	MOVQ    factorPass_dstIn(AX), R8
	MOVQ    (R8)(SI*1), R8
	ADDQ    R14, R8
	VMOVUPD Z1, (R8)
	VMOVUPD Z3, (R8)(R10*1)
	VMOVUPD Z5, (R8)(R11*1)
	VMOVUPD Z7, (R8)(R12*1)
	ADDQ    $32, SI
	CMPQ    SI, factorPass_inBytes(AX)
	JB      rowblock

	ADDQ $8, R15
	CMPQ R15, factorPass_restBytes(AX)
	JB   rest

	ADDQ $factorPass__size, AX
	DECQ passesLeft
	JNZ  pass

	MOVQ (factorPass_dst-factorPass__size)(AX), SI
	MOVQ amp+0(FP), AX
	MOVQ groupAddr, DI
	MOVQ qmask+40(FP), R8
	CMPQ lanes+64(FP), $0
	JE   nextrun

	// Scatter the tile the last pass wrote.
	MOVQ bases(SI*8), SI
	MOVQ lane1, R9
	MOVQ lane2, R14
	MOVQ lane3, R15
	MOVQ offs+8(FP), CX
	MOVQ dim+32(FP), BX
	ADDQ SI, BX

scatter:
	MOVQ          (CX), R8
	SHLQ          $4, R8
	VMOVAPD       (SI), Z8
	VMOVUPD       X8, (DI)(R8*1)
	VEXTRACTF32X4 $1, Z8, (R9)(R8*1)
	VEXTRACTF32X4 $2, Z8, (R14)(R8*1)
	VEXTRACTF32X4 $3, Z8, (R15)(R8*1)
	ADDQ          $8, CX
	ADDQ          $64, SI
	CMPQ          SI, BX
	JB            scatter

	MOVQ count+56(FP), R8
	SUBQ $4, R8
	JLE  done
	MOVQ R8, count+56(FP)
	MOVQ qmask+40(FP), R8
	MOVQ R15, DI
	SUBQ AX, DI
	ORQ  R8, DI
	ADDQ $16, DI
	NOTQ R8
	ANDQ R8, DI
	ADDQ AX, DI
	JMP  quad

nextrun:
	SUBQ $4, count+56(FP)
	JLE  done
	SUBQ AX, DI
	ORQ  R8, DI
	ADDQ $64, DI
	NOTQ R8
	ANDQ R8, DI
	ADDQ AX, DI
	JMP  quad

done:
	VZEROUPPER
	RET
