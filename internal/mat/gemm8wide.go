// Gemm8Wide is the production int8 convolution kernel: C = A·B with the
// static operand (quantized weights) pre-widened to int32 once at
// quantize time. Pre-widening moves the per-element sign-extension of A
// out of the hot loop and, on amd64 with AVX2, lets the inner loop run
// as an 8-lane vector microkernel (gemm8_amd64.s) that broadcasts one
// widened A value across a stripe of B bytes — the same broadcast-axpy
// shape as the scalar path, 8 MACs per instruction group.
//
// Every path (vector microkernel, scalar tail columns, pure-Go
// fallback) computes the identical exact int32 sums, so results are
// bit-identical across architectures, worker counts and dispatch
// decisions. The AVX2 path parallelizes over disjoint C column stripes,
// the fallback over C rows; both splits are value-invariant.
package mat

// Widen8 returns q widened element-wise to int32, the A-operand form
// Gemm8Wide takes. Callers widen quantized weights once and reuse the
// result across inferences.
func Widen8(q []int8) []int32 {
	w := make([]int32, len(q))
	for i, v := range q {
		w[i] = int32(v)
	}
	return w
}

// Gemm8Wide computes C = A·B where A is m×k pre-widened int8 (int32
// values in [-127, 127]) and B is k×n int8, overwriting the int32 C.
// workers bounds the goroutines used (<= 1 or small problems run
// serial); the result is bit-identical for every worker count and
// identical to the pure-Go int8 product on the un-widened A.
func Gemm8Wide(m, n, k int, a []int32, b []int8, c []int32, workers int) {
	checkGemm("Gemm8Wide", m, k, k, n, m, n, len(a), len(b), len(c))
	w := gemm8Workers(m, n, k, workers)
	if !hasAVX2 {
		if w <= 1 {
			gemm8NNW(0, m, n, k, a, b, c)
		} else {
			parallelRowRange(m, w, func(i0, i1 int) {
				gemm8NNW(i0, i1, n, k, a, b, c)
			})
		}
		return
	}
	// Column-stripe parallelism: each worker owns a disjoint stripe of
	// 8-column tiles (plus the sub-8 remainder for the last worker), so
	// every c[i][j] is produced by exactly one worker from the same
	// exact integer sum.
	tiles := n / 8
	if w <= 1 || tiles < 2 {
		gemm8WideStripe(m, n, k, a, b, c, 0, n)
		return
	}
	if w > tiles {
		w = tiles
	}
	parallelRowRange(tiles, w, func(t0, t1 int) {
		j1 := t1 * 8
		if t1 == tiles {
			j1 = n
		}
		gemm8WideStripe(m, n, k, a, b, c, t0*8, j1)
	})
}

// gemm8WideStripe computes C columns [j0, j1) for all m rows: the
// vector microkernel covers whole 8-column tiles, a scalar loop the
// remainder.
func gemm8WideStripe(m, n, k int, a []int32, b []int8, c []int32, j0, j1 int) {
	ja := j0 + (j1-j0)/8*8
	if ja > j0 {
		gemm8TileAVX2(&a[0], &b[0], &c[0], m, n, k, j0, ja)
	}
	for j := ja; j < j1; j++ {
		for i := 0; i < m; i++ {
			var s int32
			for kk, av := range a[i*k : i*k+k] {
				s += av * int32(b[kk*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// gemm8NNW is the pure-Go fallback over C rows [i0, i1), blocked and
// unrolled like gemmNN; the loop bodies live in kernels8.go.
func gemm8NNW(i0, i1, n, k int, a []int32, b []int8, c []int32) {
	for i := i0; i < i1; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		clear(ci)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				axpy8x4(ai[kk], ai[kk+1], ai[kk+2], ai[kk+3],
					b[kk*n:kk*n+n], b[(kk+1)*n:(kk+1)*n+n],
					b[(kk+2)*n:(kk+2)*n+n], b[(kk+3)*n:(kk+3)*n+n], ci)
			}
			for ; kk < k1; kk++ {
				axpy8x1(ai[kk], b[kk*n:kk*n+n], ci)
			}
		}
	}
}
