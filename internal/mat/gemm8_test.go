package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randInt8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127) // symmetric range [-127, 127]
	}
	return s
}

// naiveGemm8NT is the obviously-correct A·Bᵀ triple loop. Integer
// accumulation is exact, so any term order gives identical results and
// the comparison below is equality, not tolerance.
func naiveGemm8NT(m, n, k int, a, b []int8, c []int32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v int32
			for l := 0; l < k; l++ {
				v += int32(a[i*k+l]) * int32(b[j*k+l])
			}
			c[i*n+j] = v
		}
	}
}

func TestGemm8NTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range gemmShapes {
		a := randInt8(rng, sh.m*sh.k)
		b := randInt8(rng, sh.n*sh.k)
		want := make([]int32, sh.m*sh.n)
		naiveGemm8NT(sh.m, sh.n, sh.k, a, b, want)
		got := make([]int32, sh.m*sh.n)
		for i := range got {
			got[i] = -1 // dirty: Gemm8NT must fully overwrite
		}
		Gemm8NT(sh.m, sh.n, sh.k, a, b, got, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v element %d = %d, want %d", sh, i, got[i], want[i])
			}
		}
	}
}

// TestGemm8NTWorkerCountInvariant pins the int8 determinism contract:
// serial and any parallel worker count yield identical accumulators
// (integer arithmetic is exact, workers own disjoint rows).
func TestGemm8NTWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, n, k = 37, 301, 113 // odd everything, past the parallel threshold
	a := randInt8(rng, m*k)
	b := randInt8(rng, n*k)
	ref := make([]int32, m*n)
	Gemm8NT(m, n, k, a, b, ref, 1)
	for _, workers := range []int{2, 3, 4, 16, 0} {
		got := make([]int32, m*n)
		Gemm8NT(m, n, k, a, b, got, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d element %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestQuantize8 pins rounding (half away from zero), saturation at ±127
// (symmetric: -128 never appears), and NaN mapping to 0.
func TestQuantize8(t *testing.T) {
	cases := []struct {
		v, inv float32
		want   int8
	}{
		{0, 1, 0},
		{0.4, 1, 0},
		{0.5, 1, 1},
		{-0.5, 1, -1},
		{-0.4, 1, 0},
		{3.5, 1, 4},
		{-3.5, 1, -4},
		{126.49, 1, 126},
		{126.5, 1, 127},
		{127.4, 1, 127},
		{1e9, 1, 127},
		{-1e9, 1, -127},
		{-128, 1, -127}, // saturates symmetric, never -128
		{float32(math.Inf(1)), 1, 127},
		{float32(math.Inf(-1)), 1, -127},
		{float32(math.NaN()), 1, 0},
		{5, 0, 0}, // inv = 0: the all-zero-tensor convention
		{2, 10, 20},
	}
	for _, c := range cases {
		if got := Quantize8(c.v, c.inv); got != c.want {
			t.Errorf("Quantize8(%v, %v) = %d, want %d", c.v, c.inv, got, c.want)
		}
	}
}

// TestQuantize8Monotone property-checks that quantization is monotone
// non-decreasing in v (for positive inv) across a dense sample of the
// representable range, including far past the saturation bounds.
func TestQuantize8Monotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		inv := float32(math.Exp(rng.Float64()*8 - 4)) // scales across decades
		x := float32(rng.NormFloat64() * 200)
		y := x + float32(math.Abs(rng.NormFloat64()))
		qx, qy := Quantize8(x, inv), Quantize8(y, inv)
		if qx > qy {
			t.Fatalf("not monotone: Quantize8(%v,%v)=%d > Quantize8(%v,%v)=%d", x, inv, qx, y, inv, qy)
		}
		if qx < -127 || qx > 127 {
			t.Fatalf("Quantize8(%v,%v)=%d outside ±127", x, inv, qx)
		}
	}
}

// TestQuantize8SliceMatchesScalar pins the dispatched Quantize8Slice
// (the AVX2 kernel plus its scalar tail on amd64) to Quantize8 element
// for element: rounding ties and the values either side of them, the
// ±126.5 saturation edges, ±0, subnormals, infinities, NaN, random bit
// patterns, scales across decades and inv = 0, at every length from 0
// to 40 so the 8-element blocks and the tail both run.
func TestQuantize8SliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := []float32{
		0, float32(math.Copysign(0, -1)), 0.5, -0.5, 1.5, -1.5, 126.5, -126.5, 127.5, -127.5,
		math.Nextafter32(126.5, 0), math.Nextafter32(-126.5, 0),
		math.Nextafter32(0.5, 0), math.Nextafter32(0.5, 1), math.Nextafter32(-0.5, 0),
		math.Float32frombits(1), -math.Float32frombits(1), math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), -float32(math.NaN()),
	}
	for trial := 0; trial < 400; trial++ {
		n := trial % 41
		src := make([]float32, n)
		for i := range src {
			switch rng.Intn(3) {
			case 0:
				src[i] = edges[rng.Intn(len(edges))]
			case 1:
				src[i] = math.Float32frombits(rng.Uint32())
			default:
				src[i] = float32(rng.NormFloat64() * 100)
			}
		}
		inv := []float32{1, 0, float32(math.Exp(rng.Float64()*8 - 4))}[trial%3]
		dst := randInt8(rng, n+1) // dirty, one byte past the end must survive
		guard := dst[n]
		Quantize8Slice(src, inv, dst[:n])
		for i, v := range src {
			if want := Quantize8(v, inv); dst[i] != want {
				t.Fatalf("Quantize8Slice(%v·%v) element %d of %d = %d, want %d", v, inv, i, n, dst[i], want)
			}
		}
		if dst[n] != guard {
			t.Fatalf("length %d: wrote past the end", n)
		}
	}
}

func TestScale8(t *testing.T) {
	if s := Scale8([]float32{0, 0}); s != 0 {
		t.Fatalf("all-zero scale = %v, want 0", s)
	}
	if s := Scale8(nil); s != 0 {
		t.Fatalf("empty scale = %v, want 0", s)
	}
	if s := Scale8([]float32{1, -254, 3}); s != 2 {
		t.Fatalf("scale = %v, want 2", s)
	}
	// Round-trip: the max-|x| element quantizes exactly to ±127.
	x := []float32{0.3, -1.7, 0.9}
	s := Scale8(x)
	if q := Quantize8(-1.7, 1/s); q != -127 {
		t.Fatalf("max element quantized to %d, want -127", q)
	}
}

// Gemm8 is the int8 oracle: C = A·B where A is m×k int8 and B is k×n
// int8 (both row-major packed panels), overwriting the int32 C, through
// the blocked pure-Go kernel with the A widening done inline. The
// production Gemm8Wide must match it exactly. workers bounds the
// goroutines used (<= 1 or small problems run serial).
func Gemm8(m, n, k int, a, b []int8, c []int32, workers int) {
	checkGemm("Gemm8", m, k, k, n, m, n, len(a), len(b), len(c))
	if w := gemm8Workers(m, n, k, workers); w <= 1 {
		gemm8NN(0, m, n, k, a, b, c)
	} else {
		ParallelRows(m, w, func(i0, i1 int) {
			gemm8NN(i0, i1, n, k, a, b, c)
		})
	}
}

// gemm8NN is the int8 A·B kernel over C rows [i0, i1), mirroring
// gemmNN's blocking and unroll on the production kernels8.go bodies.
func gemm8NN(i0, i1, n, k int, a, b []int8, c []int32) {
	for i := i0; i < i1; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		clear(ci)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				axpy8x4(int32(ai[kk]), int32(ai[kk+1]), int32(ai[kk+2]), int32(ai[kk+3]),
					b[kk*n:kk*n+n], b[(kk+1)*n:(kk+1)*n+n],
					b[(kk+2)*n:(kk+2)*n+n], b[(kk+3)*n:(kk+3)*n+n], ci)
			}
			for ; kk < k1; kk++ {
				axpy8x1(int32(ai[kk]), b[kk*n:kk*n+n], ci)
			}
		}
	}
}

// naiveGemm8 is the obviously-correct A·B triple loop.
func naiveGemm8(m, n, k int, a, b []int8, c []int32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v int32
			for l := 0; l < k; l++ {
				v += int32(a[i*k+l]) * int32(b[l*n+j])
			}
			c[i*n+j] = v
		}
	}
}

func TestGemm8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sh := range gemmShapes {
		a := randInt8(rng, sh.m*sh.k)
		b := randInt8(rng, sh.k*sh.n)
		want := make([]int32, sh.m*sh.n)
		naiveGemm8(sh.m, sh.n, sh.k, a, b, want)
		got := make([]int32, sh.m*sh.n)
		for i := range got {
			got[i] = -1 // dirty: Gemm8 must fully overwrite
		}
		Gemm8(sh.m, sh.n, sh.k, a, b, got, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v element %d = %d, want %d", sh, i, got[i], want[i])
			}
		}
	}
}

// TestGemm8WorkerCountInvariant pins the int8 determinism contract for
// the NN-shape kernel.
func TestGemm8WorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, n, k = 37, 301, 113 // odd everything, past the parallel threshold
	a := randInt8(rng, m*k)
	b := randInt8(rng, k*n)
	ref := make([]int32, m*n)
	Gemm8(m, n, k, a, b, ref, 1)
	for _, workers := range []int{2, 3, 4, 16, 0} {
		got := make([]int32, m*n)
		Gemm8(m, n, k, a, b, got, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d element %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestGemm8WideMatchesGemm8 pins the production kernel (k-pair packed A,
// AVX2 microkernel where available, column-stripe parallelism) against
// the pure-Go Gemm8 path: exact integer arithmetic means every dispatch
// decision must produce bit-identical accumulators.
func TestGemm8WideMatchesGemm8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := append([]struct{ m, n, k int }{}, gemmShapes...)
	// Stress the stripe driver and the 32/16/8-column loops: sub-8
	// column tails, single tiles, every column count mod 32, odd and
	// even k around the pair boundary.
	shapes = append(shapes, []struct{ m, n, k int }{
		{1, 1, 1}, {3, 7, 5}, {8, 8, 27}, {16, 39, 72}, {5, 200, 144}, {2, 33, 9},
		{2, 16, 1}, {2, 24, 2}, {3, 40, 3}, {1, 48, 4}, {4, 56, 1}, {2, 63, 2},
	}...)
	for _, sh := range shapes {
		a := randInt8(rng, sh.m*sh.k)
		b := randInt8(rng, sh.k*sh.n)
		want := make([]int32, sh.m*sh.n)
		Gemm8(sh.m, sh.n, sh.k, a, b, want, 1)
		aw := Pack8(a, sh.m, sh.k)
		off := RowOffsets(sh.k, sh.n, nil)
		for _, workers := range []int{1, 3, 0} {
			got := make([]int32, sh.m*sh.n)
			for i := range got {
				got[i] = -1 // dirty: Gemm8Wide must fully overwrite
			}
			Gemm8Wide(sh.m, sh.n, sh.k, aw, b, off, got, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape %v workers %d element %d = %d, want %d",
						sh, workers, i, got[i], want[i])
				}
			}
		}
		// The pure-Go fallback must agree bitwise with the dispatch path
		// (on amd64 that cross-checks the microkernel against Go code).
		fb := make([]int32, sh.m*sh.n)
		gemm8NNW(0, sh.m, sh.n, sh.k, aw, b, off, fb)
		for i := range want {
			if fb[i] != want[i] {
				t.Fatalf("shape %v fallback element %d = %d, want %d", sh, i, fb[i], want[i])
			}
		}
	}
}

// TestIm2colQMatchesIm2col checks the quantize-once lowering against
// Im2col followed by element-wise quantization: staging the quantization
// before patch extraction must be indistinguishable from quantizing each
// extracted sample.
func TestIm2colQMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range convGeoms {
		x := randSlice(rng, g.c*g.h*g.w)
		oh, ow := ConvOutSize(g.h, g.k, g.stride, g.pad), ConvOutSize(g.w, g.k, g.stride, g.pad)
		p, ckk := oh*ow, g.c*g.k*g.k

		col := make([]float32, ckk*p)
		padded := make([]float32, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		Im2col(x, g.c, g.h, g.w, g.k, g.stride, g.pad, padded, col)
		inv := float32(0)
		if s := Scale8(x); s > 0 {
			inv = 1 / s
		}
		want := make([]int8, ckk*p)
		for i, v := range col {
			want[i] = Quantize8(v, inv)
		}

		got := make([]int8, ckk*p)
		for i := range got {
			got[i] = -1 // dirty: Im2colQ must fully overwrite
		}
		padded8 := make([]int8, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		for i := range padded8 {
			padded8[i] = -1 // dirty staging too
		}
		Im2colQ(x, g.c, g.h, g.w, g.k, g.stride, g.pad, inv, padded8, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %+v element %d = %d, want %d", g, i, got[i], want[i])
			}
		}
	}
}

func TestGemm8NTDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short buffer")
		}
	}()
	Gemm8NT(2, 2, 2, make([]int8, 3), make([]int8, 4), make([]int32, 4), 1)
}

// BenchmarkGemm8ConvShapes mirrors BenchmarkGemmConvShapes for the int8
// kernel: Gemm8Wide on every classifier conv product, serial (w1), with
// two column-stripe workers forced past the fan-out threshold (w2), and
// through the threshold (auto, two workers requested).
// gemm8MinParallelWork is derived from it: shapes whose w2 run is not
// faster than w1 should fall below the threshold.
func BenchmarkGemm8ConvShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range convProducts {
		a := Pack8(randInt8(rng, sh.m*sh.k), sh.m, sh.k)
		bm := randInt8(rng, sh.k*sh.n)
		off := RowOffsets(sh.k, sh.n, nil)
		c := make([]int32, sh.m*sh.n)
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.n, sh.k)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gemm8WideRun(sh.m, sh.n, sh.k, a, bm, off, c, w)
				}
			})
		}
		b.Run(name+"/auto", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm8Wide(sh.m, sh.n, sh.k, a, bm, off, c, 2)
			}
		})
	}
}
