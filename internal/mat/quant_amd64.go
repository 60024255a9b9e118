//go:build amd64

package mat

// quantize8AVX quantizes n floats (n a multiple of 8) from src into dst
// with Quantize8(v, inv). Implemented in quant_amd64.s; only called
// when hasAVX2 is true.
//
//go:noescape
func quantize8AVX(src *float32, dst *int8, n int, inv float32)
