// AVX2 row kernels for lane detection: BEV scoring (scoreRow) eight
// pixels per pass, the interior five-tap smoothing eight pixels per
// pass, and the float64 lane-filter response four columns per pass for
// the threshold statistics and the mask. Each lane runs the scalar
// code's operations in its order; every product, sum and quotient is
// rounded on its own, as in Go: no FMA, which would skip a product's
// rounding. MXCSR stays at its default (no FTZ/DAZ). Compares are
// ordered (false for NaN), as Go's are. Every sum of the score puts its
// left operand first (VEX src1), so where both operands are NaN it
// returns the left one, as the Go code's sums do.

#include "textflag.h"

DATA c255d<>+0(SB)/8, $0x406fe00000000000 // 255.0
DATA c255d<>+8(SB)/8, $0x406fe00000000000
DATA c255d<>+16(SB)/8, $0x406fe00000000000
DATA c255d<>+24(SB)/8, $0x406fe00000000000
GLOBL c255d<>(SB), RODATA|NOPTR, $32

DATA chalf<>+0(SB)/8, $0x3fe0000000000000 // 0.5
DATA chalf<>+8(SB)/8, $0x3fe0000000000000
DATA chalf<>+16(SB)/8, $0x3fe0000000000000
DATA chalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL chalf<>(SB), RODATA|NOPTR, $32

DATA cinv255d<>+0(SB)/8, $0x3f70101010101010 // 1/255
DATA cinv255d<>+8(SB)/8, $0x3f70101010101010
DATA cinv255d<>+16(SB)/8, $0x3f70101010101010
DATA cinv255d<>+24(SB)/8, $0x3f70101010101010
GLOBL cinv255d<>(SB), RODATA|NOPTR, $32

DATA absd<>+0(SB)/8, $0x7fffffffffffffff // float64 magnitude mask
DATA absd<>+8(SB)/8, $0x7fffffffffffffff
DATA absd<>+16(SB)/8, $0x7fffffffffffffff
DATA absd<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absd<>(SB), RODATA|NOPTR, $32

// maskBytes[m] is the four bools of the 4-bit compare mask m, one byte
// per lane, lane 0 lowest.
DATA maskBytes<>+0(SB)/4, $0x00000000
DATA maskBytes<>+4(SB)/4, $0x00000001
DATA maskBytes<>+8(SB)/4, $0x00000100
DATA maskBytes<>+12(SB)/4, $0x00000101
DATA maskBytes<>+16(SB)/4, $0x00010000
DATA maskBytes<>+20(SB)/4, $0x00010001
DATA maskBytes<>+24(SB)/4, $0x00010100
DATA maskBytes<>+28(SB)/4, $0x00010101
DATA maskBytes<>+32(SB)/4, $0x01000000
DATA maskBytes<>+36(SB)/4, $0x01000001
DATA maskBytes<>+40(SB)/4, $0x01000100
DATA maskBytes<>+44(SB)/4, $0x01000101
DATA maskBytes<>+48(SB)/4, $0x01010000
DATA maskBytes<>+52(SB)/4, $0x01010001
DATA maskBytes<>+56(SB)/4, $0x01010100
DATA maskBytes<>+60(SB)/4, $0x01010101
GLOBL maskBytes<>(SB), RODATA|NOPTR, $64

// BILERP gathers one plane's four bilinear corners through the column
// indices Y1 (x0) and Y2 (x1) from the rows at up and dn and blends
// them into s as raster.Bilerp does:
//
//	s = v00·gx·gy + v10·fx·gy + v01·gx·fy + v11·fx·fy
//
// with fx = Y3, gx = Y4, fy = Y14, gy = Y13, each product and sum
// rounded in that order. Clobbers Y6 (gather mask) and Y7.
#define BILERP(up, dn, s) \
	VPCMPEQD   Y6, Y6, Y6; \
	VGATHERDPS Y6, (up)(Y1*4), s; \
	VMULPS     Y4, s, s; \
	VMULPS     Y13, s, s; \
	VPCMPEQD   Y6, Y6, Y6; \
	VGATHERDPS Y6, (up)(Y2*4), Y7; \
	VMULPS     Y3, Y7, Y7; \
	VMULPS     Y13, Y7, Y7; \
	VADDPS     Y7, s, s; \
	VPCMPEQD   Y6, Y6, Y6; \
	VGATHERDPS Y6, (dn)(Y1*4), Y7; \
	VMULPS     Y4, Y7, Y7; \
	VMULPS     Y14, Y7, Y7; \
	VADDPS     Y7, s, s; \
	VPCMPEQD   Y6, Y6, Y6; \
	VGATHERDPS Y6, (dn)(Y2*4), Y7; \
	VMULPS     Y3, Y7, Y7; \
	VMULPS     Y14, Y7, Y7; \
	VADDPS     Y7, s, s

// QZ quantizes the eight samples in ya to 8 bits as qz does:
//
//	v = Clamp01(v)       v < 0 → +0, then v > 1 → 1 (NaN and -0 pass)
//	!(v > 0): v/255      keeps ±0 and NaN
//	else: qzTab[int(float64(v)·255 + 0.5)]
//
// For ±0 and NaN, v/255 is v·1 (the sign kept, a NaN quieted as the
// division quiets it), so no lane divides. The level k is truncated in
// float64 and qzTab[k] = float32(k)/255 is formed as the float64
// product k·(1/255) rounded to float32, equal for every k in [0, 255]
// (TestQzLevelProduct). xa, x1 and x2 are the X forms of ya, y1 and
// y2; y1 and y2 are clobbered. Needs Y11 = 0 and Y15 = 1.
#define QZ(ya, xa, y1, x1, y2, x2) \
	VCMPPS       $0x11, Y11, ya, y1; \
	VANDNPS      ya, y1, ya; \
	VCMPPS       $0x1e, Y15, ya, y1; \
	VBLENDVPS    y1, Y15, ya, ya; \
	VCVTPS2PD    xa, y1; \
	VEXTRACTF128 $1, ya, x2; \
	VCVTPS2PD    x2, y2; \
	VMULPD       c255d<>(SB), y1, y1; \
	VADDPD       chalf<>(SB), y1, y1; \
	VROUNDPD     $3, y1, y1; \
	VMULPD       cinv255d<>(SB), y1, y1; \
	VMULPD       c255d<>(SB), y2, y2; \
	VADDPD       chalf<>(SB), y2, y2; \
	VROUNDPD     $3, y2, y2; \
	VMULPD       cinv255d<>(SB), y2, y2; \
	VCVTPD2PSY   y1, x1; \
	VCVTPD2PSY   y2, x2; \
	VINSERTF128  $1, x2, y1, y1; \
	VCMPPS       $0x1e, Y11, ya, y2; \
	VMULPS       Y15, ya, ya; \
	VBLENDVPS    y2, y1, ya, ya

// func scoreRowAVX(dst *float32, s *bevSample, n int, src *bevSrc, fy float32, xMax int32, k *[4]float32)
//
// Per pass: eight (x0, fx) samples are split into an x0 and an fx
// vector (VSHUFPS picks the even or odd words of two loads, VPERMQ
// restores column order); x0 < 0 lanes are masked (Y10) and gather
// column 0, x1 = min(x0+1, xMax); R, G and B are blended and quantized,
// then
//
//	luma   = k0·r + k1·g + k2·b
//	chroma = r - b, +0 where it is < 0
//	out    = luma + k3·chroma, +0 in the masked lanes
//
// Register map: DI=dst, SI=samples, CX=end offset, AX=offset into dst
// (2·AX into samples), R8=k, R9-R13/BX=source rows, Y15=1, Y14=fy,
// Y13=gy, Y12=xMax, Y11=0.
TEXT ·scoreRowAVX(SB), NOSPLIT, $0-48
	MOVQ src+24(FP), AX // six slice headers of 24 bytes
	MOVQ 0(AX), R9
	MOVQ 24(AX), R10
	MOVQ 48(AX), R11
	MOVQ 72(AX), R12
	MOVQ 96(AX), R13
	MOVQ 120(AX), BX
	MOVQ dst+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+40(FP), R8
	VBROADCASTSS fy+32(FP), Y14
	MOVL xMax+36(FP), AX
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x3f800000, AX // 1
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
	VSUBPS Y14, Y15, Y13 // gy = 1 - fy
	VXORPS Y11, Y11, Y11
	SHLQ $2, CX
	XORQ AX, AX

score:
	CMPQ AX, CX
	JGE  scoreDone
	VMOVUPS  (SI)(AX*2), Y5
	VMOVUPS  32(SI)(AX*2), Y6
	VSHUFPS  $0x88, Y6, Y5, Y0
	VPERMQ   $0xd8, Y0, Y0 // x0
	VSHUFPS  $0xdd, Y6, Y5, Y3
	VPERMQ   $0xd8, Y3, Y3 // fx
	VPCMPGTD Y0, Y11, Y10  // x0 < 0
	VPMAXSD  Y11, Y0, Y1   // x0, 0 in masked lanes
	VPCMPEQD Y2, Y2, Y2
	VPSUBD   Y2, Y1, Y2    // x0 + 1
	VPMINSD  Y12, Y2, Y2   // x1
	VSUBPS   Y3, Y15, Y4   // gx = 1 - fx
	BILERP(R9, R10, Y8)
	QZ(Y8, X8, Y5, X5, Y6, X6)
	BILERP(R11, R12, Y9)
	QZ(Y9, X9, Y5, X5, Y6, X6)
	BILERP(R13, BX, Y0)
	QZ(Y0, X0, Y5, X5, Y6, X6)
	VBROADCASTSS 0(R8), Y5
	VMULPS       Y8, Y5, Y5 // k0·r
	VBROADCASTSS 4(R8), Y6
	VMULPS       Y9, Y6, Y6 // k1·g
	VADDPS       Y6, Y5, Y5
	VBROADCASTSS 8(R8), Y6
	VMULPS       Y0, Y6, Y6 // k2·b
	VADDPS       Y6, Y5, Y5 // luma
	VSUBPS       Y0, Y8, Y6 // chroma = r - b
	VCMPPS       $0x11, Y11, Y6, Y7
	VANDNPS      Y6, Y7, Y6
	VBROADCASTSS 12(R8), Y7
	VMULPS       Y6, Y7, Y7 // k3·chroma
	VADDPS       Y7, Y5, Y7 // luma first
	VANDNPS      Y7, Y10, Y7
	VMOVUPS      Y7, (DI)(AX*1)
	ADDQ $32, AX
	JMP  score

scoreDone:
	VZEROUPPER
	RET

// func smoothRowAVX(dst, win *float32, w, n int)
//
// s = ((((+0 + p0) + 2·p1) + 3·p2) + 2·p3) + p4, then s/9. 2·p is
// formed as p + p, which rounds as the product does.
TEXT ·smoothRowAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ win+8(FP), R8
	MOVQ w+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $2, BX
	LEAQ (R8)(BX*1), R9   // p1
	LEAQ (R9)(BX*1), R10  // p2
	LEAQ (R10)(BX*1), R11 // p3
	LEAQ (R11)(BX*1), R12 // p4
	MOVL $0x40400000, AX  // 3
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
	MOVL $0x41100000, AX  // 9
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	VXORPS Y13, Y13, Y13
	SHLQ $2, CX
	XORQ AX, AX

smooth:
	CMPQ AX, CX
	JGE  smoothDone
	VMOVUPS (R8)(AX*1), Y0
	VADDPS  Y0, Y13, Y1
	VMOVUPS (R9)(AX*1), Y0
	VADDPS  Y0, Y0, Y0
	VADDPS  Y0, Y1, Y1
	VMOVUPS (R10)(AX*1), Y0
	VMULPS  Y15, Y0, Y0
	VADDPS  Y0, Y1, Y1
	VMOVUPS (R11)(AX*1), Y0
	VADDPS  Y0, Y0, Y0
	VADDPS  Y0, Y1, Y1
	VMOVUPS (R12)(AX*1), Y0
	VADDPS  Y0, Y1, Y1
	VDIVPS  Y14, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, AX
	JMP  smooth

smoothDone:
	VZEROUPPER
	RET

// RESPONSE leaves in Y0 the float64 lane-filter response of the four
// columns whose float32 centres are at off(SI):
//
//	2·c - l - r - |l - r|,  l = c[-3], r = c[+3]
//
// 2·c is formed as c + c. Clobbers Y1 and Y2.
#define RESPONSE(off) \
	VCVTPS2PD off(SI), Y0; \
	VCVTPS2PD off-12(SI), Y1; \
	VCVTPS2PD off+12(SI), Y2; \
	VADDPD    Y0, Y0, Y0; \
	VSUBPD    Y1, Y0, Y0; \
	VSUBPD    Y2, Y0, Y0; \
	VSUBPD    Y2, Y1, Y1; \
	VANDPD    absd<>(SB), Y1, Y1; \
	VSUBPD    Y1, Y0, Y0

// func stripeSumsAVX(row *float32, n int, sums *[2]float64)
//
// Each response that is not > 0 (ordered) becomes +0, and the four
// responses and their squares are added to the running sums one at a
// time in column order: adding +0 to the non-negative sums changes no
// bit, so this is the scalar loop's skip.
TEXT ·stripeSumsAVX(SB), NOSPLIT, $0-24
	MOVQ row+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ sums+16(FP), DX
	VMOVSD 0(DX), X8
	VMOVSD 8(DX), X9
	VXORPD Y11, Y11, Y11
	ADDQ $12, SI          // column stripeTau
	LEAQ (SI)(CX*4), CX

sums:
	CMPQ SI, CX
	JGE  sumsDone
	RESPONSE(0)
	VCMPPD  $0x1e, Y11, Y0, Y3
	VANDPD  Y3, Y0, Y0
	VMULPD  Y0, Y0, Y1
	VADDSD  X0, X8, X8
	VADDSD  X1, X9, X9
	VPERMILPD $1, X0, X2
	VPERMILPD $1, X1, X3
	VADDSD  X2, X8, X8
	VADDSD  X3, X9, X9
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y1, X1
	VADDSD  X0, X8, X8
	VADDSD  X1, X9, X9
	VPERMILPD $1, X0, X2
	VPERMILPD $1, X1, X3
	VADDSD  X2, X8, X8
	VADDSD  X3, X9, X9
	ADDQ $16, SI
	JMP  sums

sumsDone:
	VMOVSD X8, 0(DX)
	VMOVSD X9, 8(DX)
	VZEROUPPER
	RET

// func stripeMaskAVX(mrow *bool, row *float32, n int, th float64)
//
// mrow[x] = response > th (ordered), four bools per pass stored as one
// word from maskBytes.
TEXT ·stripeMaskAVX(SB), NOSPLIT, $0-32
	MOVQ mrow+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD th+24(FP), Y13
	LEAQ maskBytes<>(SB), R8
	ADDQ $3, DI           // column stripeTau
	ADDQ $12, SI
	LEAQ (SI)(CX*4), CX

mask:
	CMPQ SI, CX
	JGE  maskDone
	RESPONSE(0)
	VCMPPD    $0x1e, Y13, Y0, Y3
	VMOVMSKPD Y3, AX
	MOVL      (R8)(AX*4), AX
	MOVL      AX, (DI)
	ADDQ $4, DI
	ADDQ $16, SI
	JMP  mask

maskDone:
	VZEROUPPER
	RET
