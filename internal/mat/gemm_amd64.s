// AVX float32 GEMM microkernel: C[i][0:nv) += Σ_k A[i][k]·B[k][0:nv)
// for every row of C. Each C stripe is loaded from memory first, so a
// bias-seeded (or cleared) C accumulates exactly as the scalar kernel
// does. The inner loop broadcasts one A value (VBROADCASTSS) and
// applies a separate VMULPS and VADDPS per 8-lane B stripe, in strictly
// increasing k: every lane rounds the product, then the sum, exactly
// like the scalar `v += a*b` of axpy4 in kernels.go. No FMA — a fused
// multiply-add skips the product's rounding and would move result bits.
//
// Main loop covers 32 columns (4 YMM accumulators) per pass to amortize
// the A broadcast; an 8-column loop mops up. nv must be a multiple of 8
// (gemmRows runs the remaining columns through a scalar loop).
//
// Register map: SI=b, DX=C row advance bytes, R8=m, R9=B row stride
// bytes, R10=k, R12=nv, R13=i, R14=C pointer, R15=j, BX=A row,
// AX/CX=A/B walk pointers, DI=A row end.

#include "textflag.h"

// func gemmF32TileAVX(a, b, c *float32, m, n, k, nv int)
TEXT ·gemmF32TileAVX(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), BX
	MOVQ b+8(FP), SI
	MOVQ c+16(FP), R14
	MOVQ m+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ nv+48(FP), R12
	MOVQ R9, DX
	SUBQ R12, DX
	SHLQ $2, DX                // row advance = (n - nv)*4 bytes
	SHLQ $2, R9                // B row stride in bytes

	XORQ R13, R13              // i = 0
rowloop:
	CMPQ R13, R8
	JGE  done
	LEAQ (BX)(R10*4), DI       // aend = arow + k
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
	LEAQ (SI)(R15*4), CX       // bp = b + j (row 0)
kloop32:
	VBROADCASTSS (AX), Y12
	VMULPS (CX), Y12, Y4
	VADDPS Y4, Y0, Y0
	VMULPS 32(CX), Y12, Y5
	VADDPS Y5, Y1, Y1
	VMULPS 64(CX), Y12, Y6
	VADDPS Y6, Y2, Y2
	VMULPS 96(CX), Y12, Y7
	VADDPS Y7, Y3, Y3
	ADDQ $4, AX                // next A value
	ADDQ R9, CX                // next B row
	CMPQ AX, DI
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
	LEAQ (SI)(R15*4), CX
kloop8:
	VBROADCASTSS (AX), Y12
	VMULPS (CX), Y12, Y4
	VADDPS Y4, Y0, Y0
	ADDQ $4, AX
	ADDQ R9, CX
	CMPQ AX, DI
	JL   kloop8
	VMOVUPS Y0, (R14)
	ADDQ $32, R14
	ADDQ $8, R15
	JMP  j8loop

rownext:
	MOVQ DI, BX                // next A row starts at this row's end
	ADDQ DX, R14               // cptr over the stripe gap to next row
	INCQ R13
	JMP  rowloop

done:
	VZEROUPPER
	RET
