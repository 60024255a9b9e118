//go:build !amd64

package isp

func denoiseInteriorAVX(up, mid, dn, dst *float32, n int, k *[9]float32, inv2s2 float32) {
	panic("isp: denoiseInteriorAVX called without AVX")
}
