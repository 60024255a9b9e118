// Innermost float32 GEMM loop bodies, isolated in this file so the CI
// bce-guard step can assert the compiler proves every access in-bounds:
// `go build -gcflags=-d=ssa/check_bce` must report nothing for this file.
// Each kernel opens with an explicit length guard — a plain branch, not a
// per-iteration bounds check — which is what lets the prove pass
// eliminate the checks inside the loops and keeps the loop bodies in the
// shape a vectorizing backend wants: contiguous panels, induction on a
// single index, no calls.
//
// The accumulation order inside each kernel is part of the package's
// determinism contract (see gemm.go) and must not change. The explicit
// float32 conversion on each product rounds it before the add, which
// forbids the compiler from fusing the pair into one FMA (the arm64
// backend otherwise does): the fallback then rounds exactly like the
// AVX microkernel's VMULPS + VADDPS on every target.
package mat

// axpy4 folds four scaled panel rows onto the output row ci, preserving
// the per-element term order a0·b0, a1·b1, a2·b2, a3·b3:
//
//	ci[j] += a0*b0[j]; ci[j] += a1*b1[j]; ci[j] += a2*b2[j]; ci[j] += a3*b3[j]
//
// with every product rounded to float32 before its add.
func axpy4(a0, a1, a2, a3 float32, b0, b1, b2, b3, ci []float32) {
	if len(b0) < len(ci) || len(b1) < len(ci) || len(b2) < len(ci) || len(b3) < len(ci) {
		panic("mat: axpy4 panel row shorter than output row")
	}
	for j, v := range ci {
		v += float32(a0 * b0[j])
		v += float32(a1 * b1[j])
		v += float32(a2 * b2[j])
		v += float32(a3 * b3[j])
		ci[j] = v
	}
}

// axpy1 folds one scaled panel row onto the output row ci.
func axpy1(av float32, bk, ci []float32) {
	if len(bk) < len(ci) {
		panic("mat: axpy1 panel row shorter than output row")
	}
	for j := range ci {
		ci[j] += float32(av * bk[j])
	}
}

// dot4 returns v plus the dot product of a and b, accumulated with a
// single accumulator in strictly increasing index order (no split sums —
// determinism over speed, matching the float32 contract). The unroll
// only shortens the loop bookkeeping; the term order is unchanged. The
// unrolled loop conditions on both lengths and advances both slices —
// the shape the prove pass needs to discharge every access, where
// indexed forms (a[kk+1] under kk+4 <= len(a)) leave checks behind.
func dot4(v float32, a, b []float32) float32 {
	if len(b) < len(a) {
		panic("mat: dot4 operand shorter than row")
	}
	for len(a) >= 4 && len(b) >= 4 {
		v += float32(a[0] * b[0])
		v += float32(a[1] * b[1])
		v += float32(a[2] * b[2])
		v += float32(a[3] * b[3])
		a, b = a[4:], b[4:]
	}
	if len(b) < len(a) { // unreachable; re-teaches prove the length relation
		panic("mat: dot4 operand shorter than row")
	}
	for kk := 0; kk < len(a); kk++ {
		v += float32(a[kk] * b[kk])
	}
	return v
}
