//go:build amd64 && !noasm

#include "textflag.h"

// SQDIST_ROW computes one squared L2 distance in float64 per the
// summation order specified in kernel.go: two 4-lane double
// accumulators (Y0 holds partial sums p0..p3, Y1 holds p4..p7) fed 8
// elements per iteration, reduced with the fixed tree
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)), then a sequential scalar tail
// for n mod 8 elements. Every arithmetic step is a single IEEE-754
// double rounding (convert, subtract, multiply, add — no FMA), and a
// NaN result is canonicalized to the math.NaN() bit pattern, matching
// sqDistGeneric bit for bit on every input.
//
// In: SI = q, DI = v, CX = n, DX = n &^ 7 (the blocked prefix).
// Out: the distance in X0. Clobbers AX and Y1-Y5.
#define SQDIST_ROW \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	XORQ AX, AX; \
	CMPQ DX, $0; \
	JE   reduce; \
blocked: \
	VCVTPS2PD (SI)(AX*4), Y2; \
	VCVTPS2PD (DI)(AX*4), Y3; \
	VSUBPD Y3, Y2, Y2; \
	VMULPD Y2, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VCVTPS2PD 16(SI)(AX*4), Y4; \
	VCVTPS2PD 16(DI)(AX*4), Y5; \
	VSUBPD Y5, Y4, Y4; \
	VMULPD Y4, Y4, Y4; \
	VADDPD Y4, Y1, Y1; \
	ADDQ $8, AX; \
	CMPQ AX, DX; \
	JL   blocked; \
reduce: \
	VADDPD Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD X1, X0, X0; \
	VUNPCKHPD X0, X0, X1; \
	VADDSD X1, X0, X0; \
tail: \
	CMPQ AX, CX; \
	JGE  canon; \
	VCVTSS2SD (SI)(AX*4), X2, X2; \
	VCVTSS2SD (DI)(AX*4), X3, X3; \
	VSUBSD X3, X2, X2; \
	VMULSD X2, X2, X2; \
	VADDSD X2, X0, X0; \
	INCQ AX; \
	JMP  tail; \
canon: \
	UCOMISD X0, X0; \
	JPC  ordered; \
	MOVQ $0x7FF8000000000001, AX; \
	MOVQ AX, X0; \
ordered:

// func sqDistAVX2(q, v *float32, n int) float64
//
// The pair kernel: one SQDIST_ROW.
TEXT ·sqDistAVX2(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	ANDQ $-8, DX
	SQDIST_ROW
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// ROWS4_DIM4 computes the distances from a dim-4 query to four
// contiguous dim-4 rows at once. With no blocked prefix the specified
// order is the sequential tail s = ((t0+t1)+t2)+t3 per row. Each row's
// terms t = (q - v)² fill one 4-lane register; a 4×4 transpose turns
// the four registers into T_j = (t_j of rows 0..3), so
// ((T0+T1)+T2)+T3 evaluates exactly that order for four rows at once.
//
// In: DI = the four rows, Y14 = the query widened to float64, Y15 =
// the canonical math.NaN() bits in every lane.
// Out: the four distances in Y8, NaN lanes canonicalized. Clobbers
// Y0-Y12.
#define ROWS4_DIM4 \
	VCVTPS2PD (DI), Y0; \
	VCVTPS2PD 16(DI), Y1; \
	VCVTPS2PD 32(DI), Y2; \
	VCVTPS2PD 48(DI), Y3; \
	VSUBPD Y0, Y14, Y0; \
	VSUBPD Y1, Y14, Y1; \
	VSUBPD Y2, Y14, Y2; \
	VSUBPD Y3, Y14, Y3; \
	VMULPD Y0, Y0, Y0; \
	VMULPD Y1, Y1, Y1; \
	VMULPD Y2, Y2, Y2; \
	VMULPD Y3, Y3, Y3; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y8; \
	VPERM2F128 $0x20, Y7, Y5, Y9; \
	VPERM2F128 $0x31, Y6, Y4, Y10; \
	VPERM2F128 $0x31, Y7, Y5, Y11; \
	VADDPD Y9, Y8, Y8; \
	VADDPD Y10, Y8, Y8; \
	VADDPD Y11, Y8, Y8; \
	VCMPPD $3, Y8, Y8, Y12; \
	VBLENDVPD Y12, Y15, Y8, Y8

// CANON_NAN_Y15 broadcasts the canonical math.NaN() bits into every
// lane of Y15, as ROWS4_DIM4 expects. Clobbers AX.
#define CANON_NAN_Y15 \
	MOVQ $0x7FF8000000000001, AX; \
	MOVQ AX, X15; \
	VBROADCASTSD X15, Y15

// func distanceRowsAVX2(q, vecs *float32, dim, n int, out *float64)
//
// Squared L2 distance from the dim-length query q to each of the n
// contiguous dim-length rows of vecs, out[i] for row i, bit for bit
// what the pair kernel returns for that row.
//
// dim == 4 (the PQ subspace width) takes ROWS4_DIM4, four rows per
// iteration, while at least four rows remain (the transpose: a row's
// four terms in one register become one term of four rows per
// register). Every other dim, and the last dim-4 rows, run SQDIST_ROW
// per row.
TEXT ·distanceRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ vecs+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ n+24(FP), R8
	MOVQ out+32(FP), R9
	CMPQ CX, $4
	JNE  rows
	CMPQ R8, $4
	JL   rows
	VCVTPS2PD (SI), Y14        // the query, widened once
	CANON_NAN_Y15

quad:
	ROWS4_DIM4
	VMOVUPD Y8, (R9)
	ADDQ $64, DI
	ADDQ $32, R9
	SUBQ $4, R8
	CMPQ R8, $4
	JGE  quad

rows:
	TESTQ R8, R8
	JE    done
	MOVQ CX, DX
	ANDQ $-8, DX

row:
	SQDIST_ROW
	MOVSD X0, (R9)
	LEAQ (DI)(CX*4), DI        // next row
	ADDQ $8, R9
	DECQ R8
	JNE  row

done:
	VZEROUPPER
	RET

// func adcTableAVX2(q, book *float32, m int, tab *float32)
//
// The ADC lookup table at dsub 4, for m ≥ 1 subquantizers: for each j,
// the query's j-th 4-float subvector against the 256 4-float rows of
// codebook j, ROWS4_DIM4 four rows at a time, each float64 distance
// rounded once to float32 (VCVTPD2PS, round to nearest even; the
// canonical NaN becomes 0x7FC00000 exactly as Go's float32 conversion
// makes it) and stored straight into the table.
TEXT ·adcTableAVX2(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ book+8(FP), DI
	MOVQ m+16(FP), CX
	MOVQ tab+24(FP), R9
	CANON_NAN_Y15

sub:
	VCVTPS2PD (SI), Y14        // subvector j, widened once per codebook
	MOVQ $64, R8               // 256 rows, four per iteration

tquad:
	ROWS4_DIM4
	VCVTPD2PSY Y8, X8
	VMOVUPS X8, (R9)
	ADDQ $64, DI
	ADDQ $16, R9
	DECQ R8
	JNE  tquad
	ADDQ $16, SI
	DECQ CX
	JNE  sub
	VZEROUPPER
	RET

// Per-lane cell offsets of one 8-subquantizer block: lane k reads
// table row k of the block, k·256 cells in.
DATA adcLanes<>+0(SB)/4, $0
DATA adcLanes<>+4(SB)/4, $256
DATA adcLanes<>+8(SB)/4, $512
DATA adcLanes<>+12(SB)/4, $768
DATA adcLanes<>+16(SB)/4, $1024
DATA adcLanes<>+20(SB)/4, $1280
DATA adcLanes<>+24(SB)/4, $1536
DATA adcLanes<>+28(SB)/4, $1792
GLOBL adcLanes<>(SB), RODATA|NOPTR, $32

// func adcScanAVX2(table *float32, codes *byte, m, n int, out *float64)
//
// ADC scan of n rows of m ≥ 1 code bytes per the order specified in
// adc.go. Per 8-subquantizer block: VPMOVZXBD widens the 8 code bytes
// to dwords, the lane offsets make them cell indices into the block's
// 8 table rows (BX advances 8 rows, 8 KiB, per block), one VGATHERDPS
// loads the 8 cells, and VCVTPS2PD widens the low and high halves into
// the accumulators Y0 (p0..p3) and Y1 (p4..p7). The fixed-tree
// reduction, the scalar tail and the NaN canonicalization are those of
// SQDIST_ROW.
TEXT ·adcScanAVX2(SB), NOSPLIT, $0-40
	MOVQ table+0(FP), SI
	MOVQ codes+8(FP), DI
	MOVQ m+16(FP), CX
	MOVQ n+24(FP), R8
	MOVQ out+32(FP), R9
	MOVQ CX, DX
	ANDQ $-8, DX               // the blocked prefix, m &^ 7
	VMOVDQU adcLanes<>(SB), Y13

arow:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, BX                // table row of subquantizer AX
	XORQ AX, AX
	CMPQ DX, $0
	JE   areduce

ablock:
	VPMOVZXBD (DI)(AX*1), Y2
	VPADDD Y13, Y2, Y2
	VPCMPEQD Y3, Y3, Y3        // gather mask: all lanes (cleared by the gather)
	VXORPS Y4, Y4, Y4
	VGATHERDPS Y3, (BX)(Y2*4), Y4
	VCVTPS2PD X4, Y5
	VEXTRACTF128 $1, Y4, X6
	VCVTPS2PD X6, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8192, BX
	ADDQ $8, AX
	CMPQ AX, DX
	JL   ablock

areduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0

atail:
	CMPQ AX, CX
	JGE  acanon
	MOVBQZX (DI)(AX*1), R10
	VCVTSS2SD (BX)(R10*4), X2, X2
	VADDSD X2, X0, X0
	ADDQ $1024, BX
	INCQ AX
	JMP  atail

acanon:
	UCOMISD X0, X0
	JPC  aordered
	MOVQ $0x7FF8000000000001, R10
	MOVQ R10, X0

aordered:
	MOVSD X0, (R9)
	ADDQ $8, R9
	ADDQ CX, DI                // next code row
	DECQ R8
	JNE  arow
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
