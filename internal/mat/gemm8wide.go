// Gemm8Wide is the production int8 convolution kernel: C = A·B with the
// static operand (quantized weights) packed once at quantize time into
// int16 k-pairs (Pack8) and B read in place through a row-offset table
// (see GemmOff). On amd64 with AVX2 the inner loop is a VPMADDWD
// microkernel (gemm8_amd64.s): one VPBROADCASTD of the A pair
// (a[i][l], a[i][l+1]), B rows l and l+1 sign-extended to int16 and
// interleaved in registers, and one VPMADDWD forming a[i][l]·b_l[j] +
// a[i][l+1]·b_{l+1}[j] in each int32 lane — 16 MACs per instruction.
// A pair sum is at most 2·127² < 2¹⁵ in magnitude, so the int16
// products and their pairwise int32 sum are exact (VPMADDUBSW, which
// saturates to int16, is never used).
//
// Every path (vector microkernel, scalar tail columns, pure-Go
// fallback) computes the identical exact int32 sums, so results are
// bit-identical across architectures, worker counts and dispatch
// decisions. The AVX2 path parallelizes over disjoint C column stripes,
// the fallback over C rows; both splits are value-invariant.
package mat

// Pack8 returns the m×k int8 matrix q in the A-operand form Gemm8Wide
// takes: each row widened to int16 and padded with one zero when k is
// odd, so every row is ⌈k/2⌉ (a[i][l], a[i][l+1]) pairs and an odd last
// B row is paired with itself at weight 0. Callers pack quantized
// weights once and reuse the result across inferences.
func Pack8(q []int8, m, k int) []int16 {
	kp := packedK(k)
	p := make([]int16, m*kp)
	for i := 0; i < m; i++ {
		for l, v := range q[i*k : i*k+k] {
			p[i*kp+l] = int16(v)
		}
	}
	return p
}

// packedK is the packed A row length for contraction length k.
func packedK(k int) int { return (k + 1) &^ 1 }

// Gemm8Wide computes C = A·B where A is the Pack8 form of an m×k int8
// matrix (values in [-127, 127]), row l of the k×n int8 operand B is
// b[off[l] : off[l]+n] (RowOffsets for a packed B, ConvOffsets for a
// stride-1 convolution's padded input), and C is m×n int32, overwritten.
// workers bounds the goroutines used (<= 1 or small problems run
// serial); the result is bit-identical for every worker count and
// identical to the pure-Go int8 product on the unpacked A. It panics,
// before any kernel runs, when off is shorter than k or a row reaches
// outside b.
func Gemm8Wide(m, n, k int, a []int16, b []int8, off []int, c []int32, workers int) {
	checkGemm("Gemm8Wide", m, packedK(k), k, n, m, n, len(a), k*n, len(c)) // B: row by row below
	checkOffsets("Gemm8Wide", off, k, n, len(b))
	gemm8WideRun(m, n, k, a, b, off, c, gemm8Workers(m, n, k, workers))
}

// gemm8WideRun is Gemm8Wide on validated operands with the effective
// worker count w already resolved.
func gemm8WideRun(m, n, k int, a []int16, b []int8, off []int, c []int32, w int) {
	if !hasAVX2 {
		if w <= 1 {
			gemm8NNW(0, m, n, k, a, b, off, c)
		} else {
			ParallelRows(m, w, func(i0, i1 int) {
				gemm8NNW(i0, i1, n, k, a, b, off, c)
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
		gemm8WideStripe(m, n, k, a, b, off, c, 0, n)
		return
	}
	if w > tiles {
		w = tiles
	}
	ParallelRows(tiles, w, func(t0, t1 int) {
		j1 := t1 * 8
		if t1 == tiles {
			j1 = n
		}
		gemm8WideStripe(m, n, k, a, b, off, c, t0*8, j1)
	})
}

// gemm8WideStripe computes C columns [j0, j1) for all m rows: the
// vector microkernel covers whole 8-column tiles, a scalar loop the
// remainder.
func gemm8WideStripe(m, n, k int, a []int16, b []int8, off []int, c []int32, j0, j1 int) {
	ja := j0 + (j1-j0)/8*8
	if ja > j0 {
		gemm8TileAVX2(&a[0], &b[0], &off[0], &c[0], m, n, k, j0, ja)
	}
	kp := packedK(k)
	for j := ja; j < j1; j++ {
		for i := 0; i < m; i++ {
			var s int32
			for kk, av := range a[i*kp : i*kp+k] {
				s += int32(av) * int32(b[off[kk]+j])
			}
			c[i*n+j] = s
		}
	}
}

// gemm8NNW is the pure-Go fallback over C rows [i0, i1), blocked and
// unrolled like gemmNN; the loop bodies live in kernels8.go.
func gemm8NNW(i0, i1, n, k int, a []int16, b []int8, off []int, c []int32) {
	kp := packedK(k)
	for i := i0; i < i1; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*kp : i*kp+k]
		clear(ci)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				o0, o1, o2, o3 := off[kk], off[kk+1], off[kk+2], off[kk+3]
				axpy8x4(int32(ai[kk]), int32(ai[kk+1]), int32(ai[kk+2]), int32(ai[kk+3]),
					b[o0:o0+n], b[o1:o1+n], b[o2:o2+n], b[o3:o3+n], ci)
			}
			for ; kk < k1; kk++ {
				axpy8x1(int32(ai[kk]), b[off[kk]:off[kk]+n], ci)
			}
		}
	}
}
