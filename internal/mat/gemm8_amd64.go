//go:build amd64

package mat

import "hsas/internal/cpufeat"

// gemm8TileAVX2 computes C columns [j0, j1) — j1-j0 a multiple of 8 —
// for all m rows of C = A·B, where A is the Pack8 form of an m×k int8
// matrix, row l of B starts at b[off[l]] and C rows are ldc int32s
// apart. Implemented in gemm8_amd64.s; only called when hasAVX2 is true,
// with off already validated by Gemm8Wide.
//
//go:noescape
func gemm8TileAVX2(a *int16, b *int8, off *int, c *int32, m, ldc, k, j0, j1 int)

// hasAVX2 selects the AVX2 kernels; the pure-Go fallback covers
// everything else.
var hasAVX2 = cpufeat.AVX2
