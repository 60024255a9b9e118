//go:build amd64

package mat

// gemmF32TileAVX adds A·B into C columns [0, nv) — nv a multiple of 8 —
// for all m rows, where A is m×k, row l of B starts at b[off[l]] and C
// rows are ldc apart (all float32). Implemented in gemm_amd64.s; only
// called when hasAVX2 is true, with off already validated by GemmOff.
//
//go:noescape
func gemmF32TileAVX(a, b *float32, off *int, c *float32, m, ldc, k, nv int)
