//go:build amd64

package perception

// The AVX2 row kernels of Detect, implemented in detect_amd64.s. They
// are called only when detectAVX is true, from Go code that has already
// sliced every row they read or write to its full length, so they read
// and write only inside those rows.

// scoreRowAVX scores BEV columns 0..n-1 of one row (n a multiple of 8)
// as scoreRow does: dst and s point at the row's output and footprint,
// src at the row's six source rows (each xMax+1 pixels), fy is the
// row's vertical weight and k points at scoreWeights.
//
//go:noescape
func scoreRowAVX(dst *float32, s *bevSample, n int, src *bevSrc, fy float32, xMax int32, k *[4]float32)

// smoothRowAVX writes the five-tap smoothing of columns 0..n-1 (n a
// multiple of 8) to dst as smoothRow does; win points at column 0 of
// the first of five rows of w pixels.
//
//go:noescape
func smoothRowAVX(dst, win *float32, w, n int)

// stripeSumsAVX adds the positive lane-filter responses of the n
// columns stripeTau..stripeTau+n-1 of row (n a multiple of 4) and their
// squares to sums as stripeSums does, serially in column order.
//
//go:noescape
func stripeSumsAVX(row *float32, n int, sums *[2]float64)

// stripeMaskAVX sets mrow[x] to whether the lane-filter response of row
// exceeds th, for the n columns x = stripeTau..stripeTau+n-1 (n a
// multiple of 4), as stripeMask does.
//
//go:noescape
func stripeMaskAVX(mrow *bool, row *float32, n int, th float64)
