// Quantizing im2col: the convolution lowering for the int8 path.
// QuantizePad quantizes a CHW image once into a zero-bordered int8
// staging buffer; a stride-1 int8 convolution reads that buffer in place
// through ConvOffsets (see im2col.go), and Im2colQ gathers the exact
// int8 analog of Im2col's (C·K·K) × (OH·OW) tap-major patch matrix from
// it for the strided layers. Either way the product runs on Gemm8Wide.
package mat

// QuantizePad quantizes the CHW image x (c×h×w) with Quantize8(v, inv)
// into the prefix of padded8 with a zero border of pad samples on every
// side, and returns that c×(h+2·pad)×(w+2·pad) prefix. padded8 is
// caller-held scratch (overwritten, required even when pad == 0).
func QuantizePad(x []float32, c, h, w, pad int, inv float32, padded8 []int8) []int8 {
	ph, pw := h+2*pad, w+2*pad
	dst := padded8[:c*ph*pw]
	if pad > 0 {
		clear(dst)
	}
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			Quantize8Slice(x[(ic*h+y)*w:(ic*h+y+1)*w], inv, dst[(ic*ph+y+pad)*pw+pad:])
		}
	}
	return dst
}

func Im2colQ(x []float32, c, h, w, k, stride, pad int, inv float32, padded8, col []int8) {
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	checkIm2col("Im2colQ", x, c, h, w, k, stride, pad, oh, ow, len(col))
	src := QuantizePad(x, c, h, w, pad, inv, padded8)
	ph, pw := h+2*pad, w+2*pad
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
