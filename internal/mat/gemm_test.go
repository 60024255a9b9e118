package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// naiveGemm is the obviously-correct triple loop, accumulating each
// element in increasing contraction order — the same per-element order
// the blocked kernels guarantee, so comparisons are exact.
func naiveGemm(transA, transB bool, m, n, k int, a, b, c []float32, accumulate bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			if accumulate {
				v = c[i*n+j]
			}
			for l := 0; l < k; l++ {
				av := a[i*k+l]
				if transA {
					av = a[l*m+i]
				}
				bv := b[l*n+j]
				if transB {
					bv = b[j*k+l]
				}
				v += av * bv
			}
			c[i*n+j] = v
		}
	}
}

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{3, 5, 7},
	{5, 4, 9},
	{8, 288, 27},
	{16, 1152, 72},
	{13, 241, 245}, // crosses the k-block boundary with a remainder
}

func TestGemmVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range gemmShapes {
		for _, acc := range []bool{false, true} {
			a := randSlice(rng, sh.m*sh.k)
			b := randSlice(rng, sh.k*sh.n)
			at := make([]float32, len(a)) // a stored transposed (k×m)
			for i := 0; i < sh.m; i++ {
				for l := 0; l < sh.k; l++ {
					at[l*sh.m+i] = a[i*sh.k+l]
				}
			}
			bt := make([]float32, len(b)) // b stored transposed (n×k)
			for l := 0; l < sh.k; l++ {
				for j := 0; j < sh.n; j++ {
					bt[j*sh.k+l] = b[l*sh.n+j]
				}
			}
			seed := randSlice(rng, sh.m*sh.n)

			run := func(name string, opt func(c []float32), naive func(c []float32)) {
				got := append([]float32(nil), seed...)
				want := append([]float32(nil), seed...)
				opt(got)
				naive(want)
				bitsEqual(t, name, got, want)
			}
			run("Gemm",
				func(c []float32) { Gemm(sh.m, sh.n, sh.k, a, b, c, acc, 1) },
				func(c []float32) { naiveGemm(false, false, sh.m, sh.n, sh.k, a, b, c, acc) })
			run("GemmT",
				func(c []float32) { GemmT(sh.m, sh.n, sh.k, at, b, c, acc, 1) },
				func(c []float32) { naiveGemm(true, false, sh.m, sh.n, sh.k, at, b, c, acc) })
			run("GemmNT",
				func(c []float32) { GemmNT(sh.m, sh.n, sh.k, a, bt, c, acc, 1) },
				func(c []float32) { naiveGemm(false, true, sh.m, sh.n, sh.k, a, bt, c, acc) })
		}
	}
}

// TestGemmWorkerCountInvariant pins the determinism contract: any worker
// count yields the same bits, because workers own disjoint output rows
// and per-element accumulation order never changes.
func TestGemmWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, n, k = 37, 301, 113 // odd everything, well past the parallel threshold
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	bt := make([]float32, len(b))
	for l := 0; l < k; l++ {
		for j := 0; j < n; j++ {
			bt[j*k+l] = b[l*n+j]
		}
	}
	at := make([]float32, len(a))
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			at[l*m+i] = a[i*k+l]
		}
	}
	kernels := map[string]func(c []float32, workers int){
		"Gemm":   func(c []float32, w int) { Gemm(m, n, k, a, b, c, true, w) },
		"GemmT":  func(c []float32, w int) { GemmT(m, n, k, at, b, c, true, w) },
		"GemmNT": func(c []float32, w int) { GemmNT(m, n, k, a, bt, c, true, w) },
	}
	seed := randSlice(rng, m*n)
	for name, kern := range kernels {
		ref := append([]float32(nil), seed...)
		kern(ref, 1)
		for _, workers := range []int{2, 3, 5, 16, 0} {
			got := append([]float32(nil), seed...)
			kern(got, workers)
			bitsEqual(t, name, got, ref)
		}
	}
}

// naiveIm2col extracts patches directly from the unpadded image with
// explicit bounds checks.
func naiveIm2col(x []float32, c, h, w, k, stride, pad int) []float32 {
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	col := make([]float32, c*k*k*oh*ow)
	p := oh * ow
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				l := (ic*k+ky)*k + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							col[l*p+oy*ow+ox] = x[(ic*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
	return col
}

var convGeoms = []struct{ c, h, w, k, stride, pad int }{
	{3, 24, 48, 3, 1, 1},
	{8, 12, 24, 3, 2, 1},
	{8, 12, 24, 1, 2, 0},
	{1, 13, 9, 5, 2, 2},
	{4, 7, 7, 3, 1, 0},
	{2, 40, 80, 3, 1, 1},
}

func TestIm2colMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range convGeoms {
		x := randSlice(rng, g.c*g.h*g.w)
		want := naiveIm2col(x, g.c, g.h, g.w, g.k, g.stride, g.pad)
		col := randSlice(rng, len(want)) // dirty buffer: Im2col must fully overwrite
		padded := randSlice(rng, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		Im2col(x, g.c, g.h, g.w, g.k, g.stride, g.pad, padded, col)
		bitsEqual(t, "Im2col", col, want)
	}
}

// TestCol2imMatchesNaiveScatter checks the adjoint against a direct
// scatter-add in the same (row, position) accumulation order.
func TestCol2imMatchesNaiveScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range convGeoms {
		oh, ow := ConvOutSize(g.h, g.k, g.stride, g.pad), ConvOutSize(g.w, g.k, g.stride, g.pad)
		p := oh * ow
		col := randSlice(rng, g.c*g.k*g.k*p)

		want := make([]float32, g.c*g.h*g.w)
		for ic := 0; ic < g.c; ic++ {
			for ky := 0; ky < g.k; ky++ {
				for kx := 0; kx < g.k; kx++ {
					l := (ic*g.k+ky)*g.k + kx
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*g.stride+ky-g.pad, ox*g.stride+kx-g.pad
							if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
								want[(ic*g.h+iy)*g.w+ix] += col[l*p+oy*ow+ox]
							}
						}
					}
				}
			}
		}

		dx := randSlice(rng, g.c*g.h*g.w) // dirty: Col2im must fully overwrite
		padded := randSlice(rng, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		Col2im(col, g.c, g.h, g.w, g.k, g.stride, g.pad, padded, dx)
		bitsEqual(t, "Col2im", dx, want)
	}
}

func TestGemmDimensionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short a":   func() { Gemm(2, 2, 2, make([]float32, 3), make([]float32, 4), make([]float32, 4), false, 1) },
		"short c":   func() { GemmT(2, 2, 2, make([]float32, 4), make([]float32, 4), make([]float32, 3), false, 1) },
		"zero dim":  func() { Gemm(0, 2, 2, nil, nil, nil, false, 1) },
		"kernelfit": func() { Im2col(make([]float32, 9), 1, 3, 3, 5, 1, 0, nil, make([]float32, 100)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// convProducts are the distinct conv products of the three ResNetLite
// classifiers (m = output channels, n = GEMM columns, k = input
// channels × taps). The stride-1 convolutions are implicit: n is the
// padded-grid column count, (oh−1)·pw+ow rounded up to whole 8-column
// tiles (road/scene stem 1200, block 1 312, blocks 2–3 88; lane 3280,
// 840, 224); the stride-2 block-2 conv1 and its 1×1 projection run on
// an Im2col patch matrix (n = oh·ow: 72, lane 200).
var convProducts = []struct{ m, n, k int }{
	{16, 72, 8}, {16, 200, 8}, {16, 72, 72}, {16, 88, 144}, {8, 312, 72},
	{16, 200, 72}, {8, 1200, 27}, {8, 840, 72}, {16, 224, 144}, {8, 3280, 27},
}

// BenchmarkGemmConvShapes times GemmOff serial (w1) and with two row
// workers (w2) on convProducts, with the offset table of a packed B.
// gemmMinParallelWork is derived from it: a shape whose w2 run is not
// faster than w1 should fall below the threshold. w2 goes through the
// threshold, so shapes below it run serial in both variants.
func BenchmarkGemmConvShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range convProducts {
		a := randSlice(rng, sh.m*sh.k)
		bm := randSlice(rng, sh.k*sh.n)
		off := RowOffsets(sh.k, sh.n, nil)
		c := make([]float32, sh.m*sh.n)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/w%d", sh.m, sh.n, sh.k, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GemmOff(sh.m, sh.n, sh.k, a, bm, off, c, true, workers)
				}
			})
		}
	}
}
