// AVX2 int8 GEMM microkernel: C[i][j0:j1) = Σ_l A[i][l]·B_l[j0:j1) with
// A in Pack8 form (int16 k-pairs) and B row l the int8 bytes at
// b + off[l]. Per k-pair the inner loop broadcasts the A pair
// (a[i][l], a[i][l+1]) as one dword (VPBROADCASTD), sign-extends 16
// bytes of B rows l and l+1 to int16 (VPMOVSXBW), interleaves them into
// (b_l[j], b_{l+1}[j]) word pairs (VPUNPCKLWD / VPUNPCKHWD) and
// multiply-adds each pair into one int32 lane (VPMADDWD + VPADDD): 16
// MACs per VPMADDWD. |pair sum| <= 2·127² < 2¹⁵, every sum is exact, so
// results are bit-identical to the scalar axpy8x4 loop in kernels8.go.
// An odd last row is interleaved with itself against the (a, 0) pair
// Pack8 pads, contributing a·b + 0·b.
//
// The unpacks work within 128-bit lanes, so a 16-column group lands as
// lo = [c0..3 | c8..11] and hi = [c4..7 | c12..15]; the store undoes
// that permutation with VPERM2I128. The main loop covers 32 columns
// (4 YMM accumulators) per pass to amortize the A broadcast, then a
// 16-column and an 8-column (XMM, no permutation) loop mop up. j1-j0
// must be a multiple of 8 (Gemm8Wide's stripe driver guarantees it).
//
// Register map: BX=A row, SI=b, DX=off, R14=C write pointer, R8=rows
// left, R9=C row advance bytes, R11=end of whole k-pairs in off,
// R12=j1, R15=j, AX=A walk (left at the row's end for the next row),
// CX=off walk, DI=b+j, R13/R10=B row l/l+1 offsets (R13 also the
// column-limit scratch).

#include "textflag.h"

// PAIR16 multiply-adds 16 columns at byte disp of rows R13 and R10 into
// the lo/hi accumulators (Y12 holds the broadcast A pair).
#define PAIR16(disp, lo, hi) \
	VPMOVSXBW disp(DI)(R13*1), Y4 \
	VPMOVSXBW disp(DI)(R10*1), Y5 \
	VPUNPCKLWD Y5, Y4, Y6 \
	VPUNPCKHWD Y5, Y4, Y7 \
	VPMADDWD Y12, Y6, Y6 \
	VPADDD Y6, lo, lo \
	VPMADDWD Y12, Y7, Y7 \
	VPADDD Y7, hi, hi

// PAIR8 is PAIR16 for 8 columns in XMM registers (lo = c0..3, hi = c4..7).
#define PAIR8 \
	VPMOVSXBW (DI)(R13*1), X4 \
	VPMOVSXBW (DI)(R10*1), X5 \
	VPUNPCKLWD X5, X4, X6 \
	VPUNPCKHWD X5, X4, X7 \
	VPMADDWD X12, X6, X6 \
	VPADDD X6, X0, X0 \
	VPMADDWD X12, X7, X7 \
	VPADDD X7, X1, X1

// NEXTPAIR loads the next A pair and B row offsets; ODDPAIR points both
// rows at the odd last row (its A pair is (a, 0)).
#define NEXTPAIR \
	VPBROADCASTD (AX), Y12 \
	MOVQ (CX), R13 \
	MOVQ 8(CX), R10

#define ODDPAIR \
	VPBROADCASTD (AX), Y12 \
	MOVQ (CX), R13 \
	MOVQ R13, R10

// func gemm8TileAVX2(a *int16, b *int8, off *int, c *int32, m, ldc, k, j0, j1 int)
TEXT ·gemm8TileAVX2(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), BX
	MOVQ b+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ c+24(FP), R14
	MOVQ m+32(FP), R8
	MOVQ ldc+40(FP), R9
	MOVQ k+48(FP), R11
	MOVQ j0+56(FP), R15
	MOVQ j1+64(FP), R12
	LEAQ (R14)(R15*4), R14     // cptr = c + j0 (row 0)
	SUBQ R12, R9
	ADDQ R15, R9
	SHLQ $2, R9                // row advance = (ldc - (j1-j0))*4 bytes
	ANDQ $-2, R11
	LEAQ (DX)(R11*8), R11      // end of whole pairs = off + k&^1

rowloop:
	TESTQ R8, R8
	JLE  done
	MOVQ j0+56(FP), R15        // j = j0

j32loop:
	LEAQ 32(R15), R13
	CMPQ R13, R12
	JG   j16loop               // fewer than 32 columns left
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ BX, AX                // ap = arow
	MOVQ DX, CX                // op = off
	LEAQ (SI)(R15*1), DI       // bj = b + j
	JMP  kcheck32
kloop32:
	NEXTPAIR
	PAIR16(0, Y0, Y1)
	PAIR16(16, Y2, Y3)
	ADDQ $4, AX                // next A pair
	ADDQ $16, CX               // next two B row offsets
kcheck32:
	CMPQ CX, R11
	JL   kloop32
	MOVQ k+48(FP), R13
	TESTQ $1, R13
	JZ   store32
	ODDPAIR
	PAIR16(0, Y0, Y1)
	PAIR16(16, Y2, Y3)
	ADDQ $4, AX
store32:
	VPERM2I128 $0x20, Y1, Y0, Y4
	VPERM2I128 $0x31, Y1, Y0, Y5
	VPERM2I128 $0x20, Y3, Y2, Y6
	VPERM2I128 $0x31, Y3, Y2, Y7
	VMOVDQU Y4, (R14)
	VMOVDQU Y5, 32(R14)
	VMOVDQU Y6, 64(R14)
	VMOVDQU Y7, 96(R14)
	ADDQ $128, R14
	ADDQ $32, R15
	JMP  j32loop

j16loop:
	LEAQ 16(R15), R13
	CMPQ R13, R12
	JG   j8loop
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ BX, AX
	MOVQ DX, CX
	LEAQ (SI)(R15*1), DI
	JMP  kcheck16
kloop16:
	NEXTPAIR
	PAIR16(0, Y0, Y1)
	ADDQ $4, AX
	ADDQ $16, CX
kcheck16:
	CMPQ CX, R11
	JL   kloop16
	MOVQ k+48(FP), R13
	TESTQ $1, R13
	JZ   store16
	ODDPAIR
	PAIR16(0, Y0, Y1)
	ADDQ $4, AX
store16:
	VPERM2I128 $0x20, Y1, Y0, Y4
	VPERM2I128 $0x31, Y1, Y0, Y5
	VMOVDQU Y4, (R14)
	VMOVDQU Y5, 32(R14)
	ADDQ $64, R14
	ADDQ $16, R15

j8loop:
	LEAQ 8(R15), R13
	CMPQ R13, R12
	JG   rownext               // stripe exhausted
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	MOVQ BX, AX
	MOVQ DX, CX
	LEAQ (SI)(R15*1), DI
	JMP  kcheck8
kloop8:
	NEXTPAIR
	PAIR8
	ADDQ $4, AX
	ADDQ $16, CX
kcheck8:
	CMPQ CX, R11
	JL   kloop8
	MOVQ k+48(FP), R13
	TESTQ $1, R13
	JZ   store8
	ODDPAIR
	PAIR8
	ADDQ $4, AX
store8:
	VMOVDQU X0, (R14)
	VMOVDQU X1, 16(R14)
	ADDQ $32, R14
	ADDQ $8, R15

rownext:
	MOVQ AX, BX                // next A row starts where this one's walk ended
	ADDQ R9, R14               // cptr over the stripe gap to next row
	DECQ R8
	JMP  rowloop

done:
	VZEROUPPER
	RET
