// AVX2 max-pool row kernel: eight 2×2 windows per pass. The two input
// rows are loaded 16 floats at a time and split into even and odd
// columns (VSHUFPS), which permutes the eight windows as 64-bit pairs
// in the order 0,2,1,3; VPERMPD restores it at the store. The scan is
// VMAXPS(v, best) per window slot in (dy, dx) order — exactly
// v > best ? v : best, the scalar maxGT — so the bits match the Go
// loop, NaN and ±0 included.
//
// Register map: DI=dst, SI=r0, DX=r1, CX=dst end, AL=seeded, Y15=seed.

#include "textflag.h"

// func maxPool2RowAVX(dst, r0, r1 *float32, n int, seed float32, seeded bool)
TEXT ·maxPool2RowAVX(SB), NOSPLIT, $0-37
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS seed+32(FP), Y15
	MOVBLZX seeded+36(FP), AX
	LEAQ (DI)(CX*4), CX

loop:
	CMPQ DI, CX
	JGE  done
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2  // r0 even columns: slot (0, 0)
	VSHUFPS $0xDD, Y1, Y0, Y3  // r0 odd columns: slot (0, 1)
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VSHUFPS $0x88, Y1, Y0, Y4  // slot (1, 0)
	VSHUFPS $0xDD, Y1, Y0, Y5  // slot (1, 1)
	TESTB AL, AL
	JZ   scan
	VMAXPS Y15, Y2, Y2         // best = v00 > seed ? v00 : seed
scan:
	VMAXPS Y2, Y3, Y2          // best = v01 > best ? v01 : best
	VMAXPS Y2, Y4, Y2
	VMAXPS Y2, Y5, Y2
	VPERMPD $0xD8, Y2, Y2      // windows 0,2,1,3 pairs back to 0,1,2,3
	VMOVUPS Y2, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	JMP  loop

done:
	VZEROUPPER
	RET
