// im2col / col2im: the convolution lowering that turns Conv2D forward and
// backward passes into the GEMM kernels in gemm.go.
//
// A CHW image is lowered to the (C·K·K) × (OH·OW) patch matrix whose row
// l = (ic·K+ky)·K+kx holds, for every output position p = oy·OW+ox, the
// input sample under kernel tap (ic, ky, kx). Padding is realised by
// copying the image into a zero-bordered scratch buffer once, so the
// per-patch inner loops carry no bounds checks and (for stride 1) reduce
// to contiguous copies. Col2im is the exact adjoint: it scatter-adds a
// patch-matrix gradient back onto the input grid, accumulating in
// (row, position) order so the result is deterministic.
//
// Stride-1 convolutions need no patch matrix at all. Computed at the
// padded width PW instead of OW, output position q = oy·PW+ox reads tap
// (ic, ky, kx) at padded[(ic·PH+oy+ky)·PW+ox+kx] = padded[off[l]+q] with
// off[l] = (ic·PH+ky)·PW+kx, so patch row l is the contiguous slice
// padded[off[l] : off[l]+(OH−1)·PW+OW] of the zero-bordered image itself
// (ConvOffsets). The GEMM kernels take such a B row-offset table in
// place of a uniform row stride; each kept output sums exactly the
// operands Im2col would have gathered, in the same increasing-l order,
// and the PW−OW positions past each output row are computed and dropped.
// The last patch row ends exactly at C·PH·PW, the end of the padded
// image, so nothing is read past it.
package mat

import "fmt"

// PadImage returns the CHW image x (c×h×w) with a zero border of pad
// samples on every side, as a c×(h+2·pad)×(w+2·pad) slice: x itself when
// pad == 0, else the prefix of padded (caller-held scratch, overwritten).
func PadImage(x []float32, c, h, w, pad int, padded []float32) []float32 {
	if pad == 0 {
		return x[:c*h*w]
	}
	ph, pw := h+2*pad, w+2*pad
	dst := padded[:c*ph*pw]
	clear(dst)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			copy(dst[(ic*ph+y+pad)*pw+pad:], x[(ic*h+y)*w:(ic*h+y+1)*w])
		}
	}
	return dst
}

// RowOffsets returns off[l] = l·n for l < k, the B row-offset table of a
// row-major k×n matrix such as an Im2col patch matrix. off is reused
// when it has the capacity.
func RowOffsets(k, n int, off []int) []int {
	off = growInts(off, k)
	for l := range off {
		off[l] = l * n
	}
	return off
}

// ConvOffsets returns the implicit-lowering table of a stride-1 k×k
// convolution over a c×ph×pw zero-bordered image: off[l] =
// (ic·ph+ky)·pw+kx for l = (ic·k+ky)·k+kx. Patch row l is then
// padded[off[l] : off[l]+(oh−1)·pw+ow] (see the package comment). off
// is reused when it has the capacity.
func ConvOffsets(c, k, ph, pw int, off []int) []int {
	off = growInts(off, c*k*k)
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				off[(ic*k+ky)*k+kx] = (ic*ph+ky)*pw + kx
			}
		}
	}
	return off
}

// growInts returns buf resized to n elements, reallocating only when the
// capacity is insufficient.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// ConvOutSize returns the output extent of a convolution along one axis.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// Im2col lowers the CHW image x (c×h×w) into col, the (c·k·k) × (oh·ow)
// patch matrix for a k×k convolution with the given stride and padding.
// padded is caller-held scratch of at least c·(h+2·pad)·(w+2·pad)
// elements (unused and may be nil when pad == 0); its contents are
// overwritten. col must hold c·k·k·oh·ow elements and is fully written.
func Im2col(x []float32, c, h, w, k, stride, pad int, padded, col []float32) {
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	checkIm2col("Im2col", x, c, h, w, k, stride, pad, oh, ow, len(col))
	src := PadImage(x, c, h, w, pad, padded)
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

// Col2im scatter-adds the patch-matrix gradient col (laid out as by
// Im2col) back onto the c×h×w input grid dx, overwriting dx entirely.
// padded is caller-held scratch as for Im2col (nil is fine when
// pad == 0). Each dx element accumulates its contributions in increasing
// (row, position) order of the patch matrix, independent of stride or
// padding, so the result is bit-reproducible.
func Col2im(col []float32, c, h, w, k, stride, pad int, padded, dx []float32) {
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	checkIm2col("Col2im", dx, c, h, w, k, stride, pad, oh, ow, len(col))
	dst, ph, pw := dx, h, w
	if pad > 0 {
		ph, pw = h+2*pad, w+2*pad
		dst = padded[:c*ph*pw]
	}
	clear(dst[:c*ph*pw])
	p := oh * ow
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				l := (ic*k+ky)*k + kx
				src := col[l*p : (l+1)*p]
				for oy := 0; oy < oh; oy++ {
					base := (ic*ph+oy*stride+ky)*pw + kx
					srow := src[oy*ow : (oy+1)*ow]
					if stride == 1 {
						drow := dst[base : base+ow]
						for j, v := range srow {
							drow[j] += v
						}
					} else {
						sx := base
						for _, v := range srow {
							dst[sx] += v
							sx += stride
						}
					}
				}
			}
		}
	}
	if pad > 0 {
		for ic := 0; ic < c; ic++ {
			for y := 0; y < h; y++ {
				copy(dx[(ic*h+y)*w:(ic*h+y+1)*w], dst[(ic*ph+y+pad)*pw+pad:])
			}
		}
	}
}

func checkIm2col(op string, img []float32, c, h, w, k, stride, pad, oh, ow, colLen int) {
	if c <= 0 || h <= 0 || w <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("mat: %s invalid geometry c=%d h=%d w=%d k=%d stride=%d pad=%d", op, c, h, w, k, stride, pad))
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("mat: %s kernel %d (pad %d, stride %d) does not fit %dx%d", op, k, pad, stride, h, w))
	}
	if len(img) < c*h*w {
		panic(fmt.Sprintf("mat: %s image buffer %d < %d", op, len(img), c*h*w))
	}
	if colLen < c*k*k*oh*ow {
		panic(fmt.Sprintf("mat: %s col buffer %d < %d", op, colLen, c*k*k*oh*ow))
	}
}
