//go:build amd64

package mat

// gemmF32TileAVX adds A·B into C columns [0, nv) — nv a multiple of 8 —
// for all m rows, where A is m×k, B is k×n and C is m×n float32.
// Implemented in gemm_amd64.s; only called when hasAVX2 is true.
//
//go:noescape
func gemmF32TileAVX(a, b, c *float32, m, n, k, nv int)
