//go:build !amd64

package mat

// hasAVX2 is constant false off amd64: Gemm runs gemmNN and Gemm8Wide
// the pure-Go row-parallel fallback, which compute the identical sums.
const hasAVX2 = false

func gemmF32TileAVX(a, b, c *float32, m, n, k, nv int) {
	panic("mat: gemmF32TileAVX called without AVX")
}

func gemm8TileAVX2(a *int32, b *int8, c *int32, m, n, k, j0, j1 int) {
	panic("mat: gemm8TileAVX2 called without AVX2")
}
