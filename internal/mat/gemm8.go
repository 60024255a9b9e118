// Int8 GEMM for the quantized inference path. Operands are per-tensor
// symmetrically quantized (value ≈ q·scale, q ∈ [-127, 127]; -128 is
// never produced, so negation and |min| = |max| symmetry hold), products
// accumulate in int32, and the caller applies the single requantize step
// (acc·scaleA·scaleB) afterwards.
//
// Integer accumulation is exact, so — unlike the float32 kernels, which
// must pin one accumulator and strictly increasing contraction order —
// the int8 kernels may split the sum across independent accumulators or
// pair up contraction terms (the VPMADDWD kernel in gemm8wide.go sums
// two per lane) and still be bit-deterministic for every unroll factor,
// tiling and worker count.
//
// Like kernels.go, this file must stay free of bounds checks in its
// loops: the CI bce-guard builds with -gcflags=-d=ssa/check_bce and
// fails if the compiler reports any here.
package mat

import "math"

// Quantize8 maps v to round(v·inv) with round-half-away-from-zero,
// saturating at ±127 (symmetric: -128 is never produced). inv is the
// reciprocal of the quantization scale; pass inv = 0 for an all-zero
// tensor (everything quantizes to 0). NaN quantizes to 0.
//
// The hot path is branch-free in the sign of t — activations have
// near-random signs, so a sign branch here would mispredict every other
// element. The three guard branches (NaN, the two saturation bounds)
// are almost never taken on real data and predict cleanly.
func Quantize8(v, inv float32) int8 {
	t := v * inv
	if t != t {
		return 0 // NaN
	}
	if t >= 126.5 {
		return 127
	}
	if t <= -126.5 {
		return -127
	}
	// ±0.5 carrying t's sign, so truncation rounds half away from zero.
	half := math.Float32frombits(math.Float32bits(t)&(1<<31) | 0x3F000000)
	return int8(int32(t + half))
}

// Scale8 returns the per-tensor symmetric int8 scale for x: max|x|/127,
// so that Quantize8(v, 1/scale)·scale ≈ v across the whole tensor. An
// all-zero (or empty) tensor scales to 0 — quantize it with inv = 0.
// |v| is taken by masking the sign bit and compared as uint32 (the
// orderings agree for non-negative floats), keeping the scan branch-free
// on sign.
func Scale8(x []float32) float32 {
	var m uint32
	for _, v := range x {
		if b := math.Float32bits(v) &^ (1 << 31); b > m {
			m = b
		}
	}
	return math.Float32frombits(m) / 127
}

// Quantize8Slice quantizes src into dst element-wise with Quantize8. On
// amd64 with AVX2 eight elements at a time go through a vector kernel
// (quant_amd64.s) that computes the same bits as Quantize8, the rest
// through Quantize8 itself.
func Quantize8Slice(src []float32, inv float32, dst []int8) {
	if len(dst) < len(src) {
		panic("mat: Quantize8Slice destination shorter than source")
	}
	nv := 0
	if hasAVX2 {
		nv = len(src) &^ 7
	}
	if nv > 0 {
		quantize8AVX(&src[0], &dst[0], nv, inv)
	}
	src, dst = src[nv:], dst[nv:len(src)]
	for i, v := range src {
		dst[i] = Quantize8(v, inv)
	}
}

// gemm8MinParallelWork is the m·n·k product below which the int8 kernels
// stay serial. BenchmarkGemm8ConvShapes on the VPMADDWD kernel puts the
// two-worker break-even where the float32 one is: two workers lose up to
// 2.6·10⁵, tie at 4.8–5.2·10⁵ and win only at the 7.1·10⁵ lane stem
// (BENCH.md), so only that convolution fans out and the road and scene
// classifiers stay serial and allocation-free at any worker setting.
const gemm8MinParallelWork = 1 << 19

// Gemm8NT computes C = A·Bᵀ where A is m×k int8 and B is n×k int8 (both
// contraction operands row-contiguous — packed panels), overwriting the
// int32 C. This is the GEMV shape the quantized dense layer uses (B is
// the single quantized input row). workers bounds the goroutines used;
// the result is bit-identical for every worker count.
func Gemm8NT(m, n, k int, a, b []int8, c []int32, workers int) {
	checkGemm("Gemm8NT", m, k, n, k, m, n, len(a), len(b), len(c))
	if w := gemm8Workers(m, n, k, workers); w <= 1 {
		gemm8NT(0, m, n, k, a, b, c)
	} else {
		parallelRowRange(m, w, func(i0, i1 int) {
			gemm8NT(i0, i1, n, k, a, b, c)
		})
	}
}

// gemm8NT is the int8 A·Bᵀ kernel over C rows [i0, i1): each element is
// a packed-row dot product.
func gemm8NT(i0, i1, n, k int, a, b []int8, c []int32) {
	for i := i0; i < i1; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = dot8(ai, b[j*k:j*k+k])
		}
	}
}

// gemm8Workers resolves the effective worker count for the int8 kernels.
func gemm8Workers(m, n, k, workers int) int {
	if m*n*k < gemm8MinParallelWork {
		return 1
	}
	return resolveWorkers(m, workers)
}
