//go:build !amd64

package perception

func scoreRowAVX(dst *float32, s *bevSample, n int, src *bevSrc, fy float32, xMax int32, k *[4]float32) {
	panic("perception: scoreRowAVX called without AVX2")
}

func smoothRowAVX(dst, win *float32, w, n int) {
	panic("perception: smoothRowAVX called without AVX2")
}

func stripeSumsAVX(row *float32, n int, sums *[2]float64) {
	panic("perception: stripeSumsAVX called without AVX2")
}

func stripeMaskAVX(mrow *bool, row *float32, n int, th float64) {
	panic("perception: stripeMaskAVX called without AVX2")
}
