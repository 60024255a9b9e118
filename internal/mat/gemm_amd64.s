// AVX float32 GEMM microkernel: C[i][0:nv) += Σ_l A[i][l]·B_l[0:nv)
// for every row of C, where B row l starts at b + off[l]. Each C stripe
// is loaded from memory first, so a bias-seeded (or cleared) C
// accumulates exactly as the scalar kernel does. The inner loop
// broadcasts one A value (VBROADCASTSS), loads that term's B row offset
// from the table, and applies a separate VMULPS and VADDPS per 8-lane B
// stripe, in strictly increasing l: every lane rounds the product, then
// the sum, exactly like the scalar `v += a*b` of axpy4 in kernels.go.
// No FMA — a fused multiply-add skips the product's rounding and would
// move result bits.
//
// Main loop covers 32 columns (4 YMM accumulators) per pass to amortize
// the A broadcast; an 8-column loop mops up. nv must be a multiple of 8
// (gemmRows runs the remaining columns through a scalar loop).
//
// Register map: BX=A row, SI=b, DX=off, R14=C pointer, R8=rows left,
// R9=C row advance bytes, R10=A row bytes, R11=off end, R12=nv, R15=j,
// AX=A walk, CX=off walk, DI=b+j, R13=B row offset.

#include "textflag.h"

// func gemmF32TileAVX(a, b *float32, off *int, c *float32, m, ldc, k, nv int)
TEXT ·gemmF32TileAVX(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), BX
	MOVQ b+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ c+24(FP), R14
	MOVQ m+32(FP), R8
	MOVQ ldc+40(FP), R9
	MOVQ k+48(FP), R10
	MOVQ nv+56(FP), R12
	SUBQ R12, R9
	SHLQ $2, R9                // C row advance = (ldc - nv)*4 bytes
	LEAQ (DX)(R10*8), R11      // off end = off + k
	SHLQ $2, R10               // A row = k*4 bytes

rowloop:
	TESTQ R8, R8
	JLE  done
	XORQ R15, R15              // j = 0

j32loop:
	LEAQ 32(R15), AX
	CMPQ AX, R12
	JG   j8loop                // fewer than 32 columns left
	VMOVUPS (R14), Y0
	VMOVUPS 32(R14), Y1
	VMOVUPS 64(R14), Y2
	VMOVUPS 96(R14), Y3
	MOVQ BX, AX                // ap = arow
	MOVQ DX, CX                // op = off
	LEAQ (SI)(R15*4), DI       // bj = b + j
kloop32:
	VBROADCASTSS (AX), Y12
	MOVQ (CX), R13             // B row l at bj + off[l]
	VMULPS (DI)(R13*4), Y12, Y4
	VADDPS Y4, Y0, Y0
	VMULPS 32(DI)(R13*4), Y12, Y5
	VADDPS Y5, Y1, Y1
	VMULPS 64(DI)(R13*4), Y12, Y6
	VADDPS Y6, Y2, Y2
	VMULPS 96(DI)(R13*4), Y12, Y7
	VADDPS Y7, Y3, Y3
	ADDQ $4, AX                // next A value
	ADDQ $8, CX                // next B row offset
	CMPQ CX, R11
	JL   kloop32
	VMOVUPS Y0, (R14)
	VMOVUPS Y1, 32(R14)
	VMOVUPS Y2, 64(R14)
	VMOVUPS Y3, 96(R14)
	ADDQ $128, R14
	ADDQ $32, R15
	JMP  j32loop

j8loop:
	LEAQ 8(R15), AX
	CMPQ AX, R12
	JG   rownext               // stripe exhausted
	VMOVUPS (R14), Y0
	MOVQ BX, AX
	MOVQ DX, CX
	LEAQ (SI)(R15*4), DI
kloop8:
	VBROADCASTSS (AX), Y12
	MOVQ (CX), R13
	VMULPS (DI)(R13*4), Y12, Y4
	VADDPS Y4, Y0, Y0
	ADDQ $4, AX
	ADDQ $8, CX
	CMPQ CX, R11
	JL   kloop8
	VMOVUPS Y0, (R14)
	ADDQ $32, R14
	ADDQ $8, R15
	JMP  j8loop

rownext:
	ADDQ R10, BX               // next A row
	ADDQ R9, R14               // cptr over the stripe gap to next row
	DECQ R8
	JMP  rowloop

done:
	VZEROUPPER
	RET
