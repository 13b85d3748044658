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

// func distanceRowsAVX2(q, vecs *float32, dim, n int, out *float64)
//
// Squared L2 distance from the dim-length query q to each of the n
// contiguous dim-length rows of vecs, out[i] for row i, bit for bit
// what the pair kernel returns for that row.
//
// dim == 4 (the PQ subspace width) takes a four-rows-per-iteration
// path while at least four rows remain. With no blocked prefix the
// specified order is the sequential tail s = ((t0+t1)+t2)+t3 per row.
// Each row's terms t = (q - v)² fill one 4-lane register; a 4×4
// transpose turns the four registers into T_j = (t_j of rows 0..3), so
// ((T0+T1)+T2)+T3 evaluates exactly that order for four rows at once.
// Every other dim, and the last dim-4 rows, run SQDIST_ROW per row.
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
	MOVQ $0x7FF8000000000001, AX
	MOVQ AX, X15
	VBROADCASTSD X15, Y15      // canonical math.NaN() bits in every lane

quad:
	// Terms of rows r..r+3, one row per register: Yk = (q - v_k)².
	VCVTPS2PD (DI), Y0
	VCVTPS2PD 16(DI), Y1
	VCVTPS2PD 32(DI), Y2
	VCVTPS2PD 48(DI), Y3
	VSUBPD Y0, Y14, Y0
	VSUBPD Y1, Y14, Y1
	VSUBPD Y2, Y14, Y2
	VSUBPD Y3, Y14, Y3
	VMULPD Y0, Y0, Y0
	VMULPD Y1, Y1, Y1
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	// Transpose: Y0..Y3 = rows a, b, c, d  →  Y8..Y11 = T0..T3.
	VUNPCKLPD Y1, Y0, Y4       // (a0, b0, a2, b2)
	VUNPCKHPD Y1, Y0, Y5       // (a1, b1, a3, b3)
	VUNPCKLPD Y3, Y2, Y6       // (c0, d0, c2, d2)
	VUNPCKHPD Y3, Y2, Y7       // (c1, d1, c3, d3)
	VPERM2F128 $0x20, Y6, Y4, Y8  // T0 = (a0, b0, c0, d0)
	VPERM2F128 $0x20, Y7, Y5, Y9  // T1 = (a1, b1, c1, d1)
	VPERM2F128 $0x31, Y6, Y4, Y10 // T2 = (a2, b2, c2, d2)
	VPERM2F128 $0x31, Y7, Y5, Y11 // T3 = (a3, b3, c3, d3)
	VADDPD Y9, Y8, Y8          // t0+t1
	VADDPD Y10, Y8, Y8         // (t0+t1)+t2
	VADDPD Y11, Y8, Y8         // ((t0+t1)+t2)+t3
	VCMPPD $3, Y8, Y8, Y12     // unordered: lanes that are NaN
	VBLENDVPD Y12, Y15, Y8, Y8 // NaN lanes take the canonical bits
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
