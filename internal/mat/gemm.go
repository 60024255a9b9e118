// Float32 GEMM kernels for the CNN compute path. Unlike the float64
// solvers in this package (sized for 4–8 state controller design), these
// operate on the large matrices of the conv lowering (im2col.go), so they
// are cache-blocked, unrolled, and row-partitioned across goroutines.
// The A·B product reads its B operand through a row-offset table, which
// lets a stride-1 convolution use its padded input as B in place. On
// amd64 with AVX2 (the hasAVX2 probe; the kernel itself needs only AVX),
// GemmOff's rows run through an 8-lane vector microkernel
// (gemm_amd64.s); gemmNN is the pure-Go fallback elsewhere.
//
// Determinism contract: every output element accumulates its contraction
// terms strictly in increasing index order, one rounded product and one
// rounded sum per term, for every blocking factor, worker count and
// dispatch decision. A vector lane is one output element: VMULPS then
// VADDPS round exactly like the scalar `v += a*b`, and no kernel uses a
// fused multiply-add, whose single rounding would move result bits.
// Workers partition disjoint output rows (ParallelRows) and never share
// accumulators, so results are bit-identical for any worker count and
// with or without the vector kernel — the property the cnn golden tests
// pin against the naive reference convolution. NaN payloads are the one
// exception: when both operands are NaN the hardware returns the first, and the
// compiler does not pin the operand order of commutative operations, so
// which NaN comes out may differ; that a NaN comes out does not.
package mat

import "fmt"

// gemmKC is the contraction-dimension block: B-panel rows streamed per
// pass stay resident while a C row is updated. 240 rows × a few KB per
// row keeps the panel within L2 for the classifier shapes.
const gemmKC = 240

// gemmMinParallelWork is the m·n·k product below which the goroutine
// fan-out costs more than it saves and the kernels stay serial. With
// the AVX kernel, BenchmarkGemmConvShapes puts the two-worker break-even
// near 4.6·10⁵ (parity at 8×800×72 and 16×200×144, a loss at 8×1152×27
// and below, a win only at the 8×3200×27 lane stem); see BENCH.md.
const gemmMinParallelWork = 1 << 19

// Gemm computes C = A·B (m×k times k×n, row-major float32), adding into
// the existing C when accumulate is true and overwriting it otherwise.
// workers bounds the goroutines used (<= 1 or small problems run serial).
// It is GemmOff with the packed table off[l] = l·n, built per call; hot
// callers hold the table and call GemmOff.
func Gemm(m, n, k int, a, b, c []float32, accumulate bool, workers int) {
	GemmOff(m, n, k, a, b, RowOffsets(k, n, nil), c, accumulate, workers)
}

// GemmOff computes C = A·B like Gemm, where row l of the k×n operand B is
// the slice b[off[l] : off[l]+n]: off[l] = l·n is a packed matrix, and
// ConvOffsets makes the zero-bordered image of a stride-1 convolution
// its own patch matrix. Rows may overlap. It panics, before any kernel
// runs, when off is shorter than k or a row reaches outside b.
func GemmOff(m, n, k int, a, b []float32, off []int, c []float32, accumulate bool, workers int) {
	checkGemm("GemmOff", m, k, k, n, m, n, len(a), k*n, len(c)) // B: row by row below
	checkOffsets("GemmOff", off, k, n, len(b))
	// The serial fast path avoids materializing the closure: on the
	// zero-alloc inference path the parallel branch's goroutine capture
	// would otherwise force a heap allocation per call.
	if w := resolveWorkers(m, gemmWorkers(m, n, k, workers)); w <= 1 {
		gemmRows(0, m, n, k, a, b, off, c, accumulate)
	} else {
		ParallelRows(m, w, func(i0, i1 int) {
			gemmRows(i0, i1, n, k, a, b, off, c, accumulate)
		})
	}
}

// gemmRows computes C rows [i0, i1) of A·B: whole 8-column tiles through
// the AVX microkernel and the last n%8 columns through a scalar loop with
// the same per-element order, or all of it through gemmNN without AVX.
func gemmRows(i0, i1, n, k int, a, b []float32, off []int, c []float32, accumulate bool) {
	if !hasAVX2 {
		gemmNN(i0, i1, n, k, a, b, off, c, accumulate)
		return
	}
	if !accumulate {
		clear(c[i0*n : i1*n])
	}
	nv := n &^ 7
	if nv > 0 {
		gemmF32TileAVX(&a[i0*k], &b[0], &off[0], &c[i0*n], i1-i0, n, k, nv)
	}
	for i := i0; i < i1; i++ {
		ai := a[i*k : i*k+k]
		for j := nv; j < n; j++ {
			v := c[i*n+j]
			for kk, av := range ai {
				v += float32(av * b[off[kk]+j])
			}
			c[i*n+j] = v
		}
	}
}

// GemmT computes C = Aᵀ·B where A is k×m and B is k×n (contraction over
// the shared leading dimension), adding into C when accumulate is true.
func GemmT(m, n, k int, a, b, c []float32, accumulate bool, workers int) {
	checkGemm("GemmT", k, m, k, n, m, n, len(a), len(b), len(c))
	if w := resolveWorkers(m, gemmWorkers(m, n, k, workers)); w <= 1 {
		gemmTN(0, m, m, n, k, a, b, c, accumulate)
	} else {
		ParallelRows(m, w, func(i0, i1 int) {
			gemmTN(i0, i1, m, n, k, a, b, c, accumulate)
		})
	}
}

// GemmNT computes C = A·Bᵀ where A is m×k and B is n×k (both contraction
// operands row-contiguous), adding into C when accumulate is true.
func GemmNT(m, n, k int, a, b, c []float32, accumulate bool, workers int) {
	checkGemm("GemmNT", m, k, n, k, m, n, len(a), len(b), len(c))
	if w := resolveWorkers(m, gemmWorkers(m, n, k, workers)); w <= 1 {
		gemmNT(0, m, n, k, a, b, c, accumulate)
	} else {
		ParallelRows(m, w, func(i0, i1 int) {
			gemmNT(i0, i1, n, k, a, b, c, accumulate)
		})
	}
}

// gemmNN is the A·B kernel over C rows [i0, i1). For each row the k loop
// is blocked (B panel reuse) and unrolled by four; the per-element
// accumulation order is strictly increasing k. The loop bodies live in
// kernels.go so the bce-guard can prove them bounds-check-free.
func gemmNN(i0, i1, n, k int, a, b []float32, off []int, c []float32, accumulate bool) {
	for i := i0; i < i1; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		if !accumulate {
			clear(ci)
		}
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				o0, o1, o2, o3 := off[kk], off[kk+1], off[kk+2], off[kk+3]
				axpy4(ai[kk], ai[kk+1], ai[kk+2], ai[kk+3],
					b[o0:o0+n], b[o1:o1+n], b[o2:o2+n], b[o3:o3+n], ci)
			}
			for ; kk < k1; kk++ {
				axpy1(ai[kk], b[off[kk]:off[kk]+n], ci)
			}
		}
	}
}

// gemmTN is the Aᵀ·B kernel over C rows [i0, i1). The contraction index l
// walks rows of A and B (both contiguous); per C element the order is
// strictly increasing l.
func gemmTN(i0, i1, m, n, k int, a, b, c []float32, accumulate bool) {
	if !accumulate {
		clear(c[i0*n : i1*n])
	}
	l := 0
	for ; l+4 <= k; l += 4 {
		al0 := a[l*m : l*m+m]
		al1 := a[(l+1)*m : (l+1)*m+m]
		al2 := a[(l+2)*m : (l+2)*m+m]
		al3 := a[(l+3)*m : (l+3)*m+m]
		bl0 := b[l*n : l*n+n]
		bl1 := b[(l+1)*n : (l+1)*n+n]
		bl2 := b[(l+2)*n : (l+2)*n+n]
		bl3 := b[(l+3)*n : (l+3)*n+n]
		for i := i0; i < i1; i++ {
			axpy4(al0[i], al1[i], al2[i], al3[i], bl0, bl1, bl2, bl3, c[i*n:i*n+n])
		}
	}
	for ; l < k; l++ {
		al := a[l*m : l*m+m]
		bl := b[l*n : l*n+n]
		for i := i0; i < i1; i++ {
			axpy1(al[i], bl, c[i*n:i*n+n])
		}
	}
}

// gemmNT is the A·Bᵀ kernel over C rows [i0, i1): each element is a dot
// product of two contiguous rows, accumulated in increasing k with a
// single accumulator (no split sums — determinism over speed).
func gemmNT(i0, i1, n, k int, a, b, c []float32, accumulate bool) {
	for i := i0; i < i1; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		for j := range ci {
			var v float32
			if accumulate {
				v = ci[j]
			}
			ci[j] = dot4(v, ai, b[j*k:j*k+k])
		}
	}
}

// gemmWorkers resolves the worker bound: small problems stay serial
// regardless of the requested count.
func gemmWorkers(m, n, k, workers int) int {
	if m*n*k < gemmMinParallelWork {
		return 1
	}
	return workers
}

// checkOffsets validates a B row-offset table: at least k entries, each
// row [off[l], off[l]+n) inside the lb-element operand. The assembly
// kernels trust the table, so this runs before any of them.
func checkOffsets(op string, off []int, k, n, lb int) {
	if len(off) < k {
		panic(fmt.Sprintf("mat: %s offset table %d < k=%d", op, len(off), k))
	}
	for l, o := range off[:k] {
		if o < 0 || o > lb-n {
			panic(fmt.Sprintf("mat: %s row %d at offset %d (+%d) outside operand of %d", op, l, o, n, lb))
		}
	}
}

// checkGemm validates operand dimensions against buffer lengths.
// aR×aC, bR×bC, cR×cC are the storage shapes of the three operands.
func checkGemm(op string, aR, aC, bR, bC, cR, cC, la, lb, lc int) {
	if aR <= 0 || aC <= 0 || bR <= 0 || bC <= 0 {
		panic(fmt.Sprintf("mat: %s invalid dimensions %dx%d * %dx%d", op, aR, aC, bR, bC))
	}
	if la < aR*aC || lb < bR*bC || lc < cR*cC {
		panic(fmt.Sprintf("mat: %s buffer too short: a %d<%d, b %d<%d or c %d<%d",
			op, la, aR*aC, lb, bR*bC, lc, cR*cC))
	}
}
