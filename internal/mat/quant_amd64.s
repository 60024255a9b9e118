// AVX2 int8 quantizer: Quantize8 eight floats at a time. Per lane:
// t = v·inv (VMULPS, the scalar product's rounding); t clamped to
// [-126.5, 126.5] (VMAXPS/VMINPS), which the ±0.5 below carries to
// ±127 exactly as the scalar saturation branches do; the ±0.5 carrying
// t's sign added and truncated (VADDPS, VCVTTPS2DQ: the scalar
// t + half and int32 conversion); NaN lanes, found before the clamp
// (VCMPPS unordered), zeroed. The int32 codes are within ±127, so the
// signed-saturating packs to int16 and int8 are exact.
//
// Register map: SI=src, DI=dst, CX=dst end, Y15=inv, Y14=-126.5,
// Y13=126.5, Y12=sign mask, Y11=0.5.

#include "textflag.h"

// func quantize8AVX(src *float32, dst *int8, n int, inv float32)
TEXT ·quantize8AVX(SB), NOSPLIT, $0-28
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y15
	MOVL $0xc2fd0000, AX       // -126.5
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	MOVL $0x42fd0000, AX       // 126.5
	VMOVD AX, X13
	VPBROADCASTD X13, Y13
	MOVL $0x80000000, AX       // sign bit
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x3f000000, AX       // 0.5
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	ADDQ DI, CX

loop:
	CMPQ DI, CX
	JGE  done
	VMOVUPS (SI), Y0
	VMULPS Y15, Y0, Y0         // t = v*inv
	VCMPPS $3, Y0, Y0, Y1      // NaN lanes (unordered)
	VMAXPS Y14, Y0, Y0         // t > -126.5 ? t : -126.5
	VMINPS Y13, Y0, Y0         // t < 126.5 ? t : 126.5
	VANDPS Y12, Y0, Y2
	VORPS Y11, Y2, Y2          // ±0.5 carrying t's sign
	VADDPS Y2, Y0, Y0
	VCVTTPS2DQ Y0, Y0          // truncate: round half away from zero
	VPANDN Y0, Y1, Y0          // NaN → 0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0       // 8 int16 in element order
	VPACKSSWB X0, X0, X0       // 8 int8 in the low quadword
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	JMP  loop

done:
	VZEROUPPER
	RET
