// Quantizing im2col: the convolution lowering for the int8 path.
// Im2colQ produces the exact int8 analog of Im2col's (C·K·K) × (OH·OW)
// tap-major patch matrix, so quantized convolution is Gemm8Wide(wq, col):
// the same broadcast-axpy kernel shape as the float32 path, on operands
// a quarter the size.
package mat

// Im2colQ lowers the CHW image x (c×h×w) into col, the
// (c·k·k) × (oh·ow) int8 patch matrix for a k×k convolution with the
// given stride and padding, quantizing every sample with
// Quantize8(v, inv). The image is first quantized once into padded8 —
// each input sample lands in up to k² patches, so quantizing at the
// staging step instead of per-patch saves that factor. padded8 is
// caller-held scratch of at least c·(h+2·pad)·(w+2·pad) elements
// (required even when pad == 0); col must hold c·k·k·oh·ow elements and
// is fully written.
func Im2colQ(x []float32, c, h, w, k, stride, pad int, inv float32, padded8, col []int8) {
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	checkIm2col("Im2colQ", x, c, h, w, k, stride, pad, oh, ow, len(col))
	ph, pw := h+2*pad, w+2*pad
	src := padded8[:c*ph*pw]
	if pad > 0 {
		clear(src)
	}
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			Quantize8Slice(x[(ic*h+y)*w:(ic*h+y+1)*w], inv, src[(ic*ph+y+pad)*pw+pad:])
		}
	}
	p := oh * ow
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				l := (ic*k+ky)*k + kx
				dst := col[l*p : (l+1)*p]
				for oy := 0; oy < oh; oy++ {
					base := (ic*ph+oy*stride+ky)*pw + kx
					drow := dst[oy*ow : (oy+1)*ow]
					if stride == 1 {
						copy(drow, src[base:base+ow])
					} else {
						sx := base
						for j := range drow {
							drow[j] = src[sx]
							sx += stride
						}
					}
				}
			}
		}
	}
}
