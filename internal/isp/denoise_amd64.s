// AVX bilateral denoise: denoiseInterior for eight output pixels per
// pass, bit for bit. Every lane runs the scalar bilateralTap for the
// nine taps in its order (up row, mid row, dn row; left to right):
//
//	d   = v - c                       VSUBPS
//	x   = ((-d)·d)·inv2s2             VXORPS sign, VMULPS, VMULPS
//	cut = x < -8                      VCMPPS ordered (false for NaN)
//	e   = (1 + x·(1/16))^16           VMULPS, VADDPS, four squarings
//	e   = cut ? 0 : e                 VANDNPS
//	wt  = s·e; sum += v·wt; wsum += wt
//
// then sum/wsum (VDIVPS). x·(1/16) equals the scalar x/16 exactly (a
// power-of-two scale). Each product and sum is rounded on its own, as
// in Go: no FMA, which would skip the product's rounding and move
// result bits. MXCSR stays at its default (no FTZ/DAZ), so subnormal
// d² products round as the scalar SSE code rounds them. The spatial
// weights and inv2s2 come from Go; the constants here are expFast's.
//
// Register map: AX=up, BX=mid, CX=dn, DX=dst, R8=weights, SI=byte
// offset of the pass's first window column, DI=end offset, Y15=sign
// mask, Y14=inv2s2, Y13=-8, Y12=1/16, Y11=1, Y10=c, Y9=sum, Y8=wsum.

#include "textflag.h"

// TAP adds the tap at mem with the spatial weight at koff(R8).
#define TAP(mem, koff) \
	VMOVUPS mem, Y0; \
	VSUBPS Y10, Y0, Y1; \
	VXORPS Y15, Y1, Y2; \
	VMULPS Y1, Y2, Y2; \
	VMULPS Y14, Y2, Y2; \
	VCMPPS $0x11, Y13, Y2, Y3; \
	VMULPS Y12, Y2, Y2; \
	VADDPS Y11, Y2, Y2; \
	VMULPS Y2, Y2, Y2; \
	VMULPS Y2, Y2, Y2; \
	VMULPS Y2, Y2, Y2; \
	VMULPS Y2, Y2, Y2; \
	VANDNPS Y2, Y3, Y2; \
	VBROADCASTSS koff(R8), Y4; \
	VMULPS Y2, Y4, Y4; \
	VMULPS Y4, Y0, Y5; \
	VADDPS Y5, Y9, Y9; \
	VADDPS Y4, Y8, Y8

// func denoiseInteriorAVX(up, mid, dn, dst *float32, n int, k *[9]float32, inv2s2 float32)
TEXT ·denoiseInteriorAVX(SB), NOSPLIT, $0-52
	MOVQ up+0(FP), AX
	MOVQ mid+8(FP), BX
	MOVQ dn+16(FP), CX
	MOVQ dst+24(FP), DX
	MOVQ n+32(FP), DI
	MOVQ k+40(FP), R8
	VBROADCASTSS inv2s2+48(FP), Y14
	MOVL $0x80000000, R9       // sign bit
	VMOVD R9, X15
	VPBROADCASTD X15, Y15
	MOVL $0xc1000000, R9       // -8
	VMOVD R9, X13
	VPBROADCASTD X13, Y13
	MOVL $0x3d800000, R9       // 1/16
	VMOVD R9, X12
	VPBROADCASTD X12, Y12
	MOVL $0x3f800000, R9       // 1
	VMOVD R9, X11
	VPBROADCASTD X11, Y11
	SHLQ $2, DI
	XORQ SI, SI

loop:
	CMPQ SI, DI
	JGE  done
	VMOVUPS 4(BX)(SI*1), Y10   // c
	VXORPS Y9, Y9, Y9
	VXORPS Y8, Y8, Y8
	TAP(0(AX)(SI*1), 0)
	TAP(4(AX)(SI*1), 4)
	TAP(8(AX)(SI*1), 8)
	TAP(0(BX)(SI*1), 12)
	TAP(4(BX)(SI*1), 16)
	TAP(8(BX)(SI*1), 20)
	TAP(0(CX)(SI*1), 24)
	TAP(4(CX)(SI*1), 28)
	TAP(8(CX)(SI*1), 32)
	VDIVPS Y8, Y9, Y9          // sum / wsum
	VMOVUPS Y9, 4(DX)(SI*1)
	ADDQ $32, SI
	JMP  loop

done:
	VZEROUPPER
	RET
