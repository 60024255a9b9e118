// Innermost int8 GEMM loop body, isolated like kernels.go so the CI
// bce-guard step can assert `go build -gcflags=-d=ssa/check_bce` reports
// nothing for this file.
package mat

// axpy8x4 accumulates ci[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
// with the a-values widened to int32 and held in registers — the
// quantized mirror of kernels.go's axpy4: one byte load, sign-extend,
// multiply and add per MAC, with the int32 C row streamed. The guard
// branch teaches the prove pass len(b*) >= len(ci) so the range-loop
// body carries no bounds checks.
func axpy8x4(a0, a1, a2, a3 int32, b0, b1, b2, b3 []int8, ci []int32) {
	if len(b0) < len(ci) || len(b1) < len(ci) || len(b2) < len(ci) || len(b3) < len(ci) {
		panic("mat: axpy8x4 operand shorter than row")
	}
	for j, v := range ci {
		v += a0 * int32(b0[j])
		v += a1 * int32(b1[j])
		v += a2 * int32(b2[j])
		v += a3 * int32(b3[j])
		ci[j] = v
	}
}

// axpy8x1 accumulates ci[j] += av·bk[j]; the k-tail of the unrolled
// int8 NN kernel.
func axpy8x1(av int32, bk []int8, ci []int32) {
	if len(bk) < len(ci) {
		panic("mat: axpy8x1 operand shorter than row")
	}
	for j, v := range ci {
		ci[j] = v + av*int32(bk[j])
	}
}

// dot8 returns the int8·int8 dot product of a and b, widening each
// product to int32. Four independent accumulators break the add latency
// chain; integer addition is associative, so the split is exact and the
// result identical to a single-accumulator sum — which is what keeps
// Gemm8NT bit-deterministic for every unroll factor and worker count.
// The loop conditions on both lengths and advances both slices, the
// shape the prove pass needs to discharge every access.
func dot8(a, b []int8) int32 {
	if len(b) < len(a) {
		panic("mat: dot8 operand shorter than row")
	}
	var s0, s1, s2, s3 int32
	for len(a) >= 8 && len(b) >= 8 {
		s0 += int32(a[0]) * int32(b[0])
		s1 += int32(a[1]) * int32(b[1])
		s2 += int32(a[2]) * int32(b[2])
		s3 += int32(a[3]) * int32(b[3])
		s0 += int32(a[4]) * int32(b[4])
		s1 += int32(a[5]) * int32(b[5])
		s2 += int32(a[6]) * int32(b[6])
		s3 += int32(a[7]) * int32(b[7])
		a, b = a[8:], b[8:]
	}
	s := s0 + s1 + s2 + s3
	if len(b) < len(a) { // unreachable; re-teaches prove the length relation
		panic("mat: dot8 operand shorter than row")
	}
	for kk := 0; kk < len(a); kk++ {
		s += int32(a[kk]) * int32(b[kk])
	}
	return s
}
