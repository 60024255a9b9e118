//go:build !amd64

package mat

// hasAVX2 is constant false off amd64: GemmOff runs gemmNN and Gemm8Wide
// the pure-Go row-parallel fallback, which compute the identical sums.
const hasAVX2 = false

func gemmF32TileAVX(a, b *float32, off *int, c *float32, m, ldc, k, nv int) {
	panic("mat: gemmF32TileAVX called without AVX")
}

func gemm8TileAVX2(a *int16, b *int8, off *int, c *int32, m, ldc, k, j0, j1 int) {
	panic("mat: gemm8TileAVX2 called without AVX2")
}

func maxPool2RowAVX(dst, r0, r1 *float32, n int, seed float32, seeded bool) {
	panic("mat: maxPool2RowAVX called without AVX2")
}

func quantize8AVX(src *float32, dst *int8, n int, inv float32) {
	panic("mat: quantize8AVX called without AVX2")
}
