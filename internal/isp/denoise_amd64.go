//go:build amd64

package isp

// denoiseInteriorAVX filters the n interior columns 1..n of a row (n a
// multiple of 8) as denoiseInterior does: up, mid, dn and dst point at
// column 0 of the rows above, at and below the output row and of the
// output row, k holds the nine spatial weights in tap order and inv2s2
// is the range kernel's 1/(2σ²). Implemented in denoise_amd64.s; only
// called when denoiseAVX is true, with every row already checked to
// hold n+2 columns.
//
//go:noescape
func denoiseInteriorAVX(up, mid, dn, dst *float32, n int, k *[9]float32, inv2s2 float32)
