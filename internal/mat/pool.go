// 2×2 stride-2 max pooling for CNN inference, vectorized on amd64.
package mat

import "fmt"

// MaxPool2 writes the 2×2 stride-2 max pool of the CHW image x (c×h×w)
// into out (c×(h/2)×(w/2)), dropping an odd last row or column. Each
// window is scanned in (dy, dx) order and a value replaces the running
// best only when v > best, so the first maximum wins, a ±0 tie keeps the
// earlier zero and a NaN never replaces a best. The best starts at seed
// when seeded is true, else at the window's first element.
//
// There is no compare branch to mispredict: on amd64 with AVX2 the
// windows go eight at a time through VMAXPS, whose VMAXPS(v, best) is
// exactly v > best ? v : best for every input, NaN and ±0 included, and
// the remaining columns (and every column elsewhere) through the
// branch-free scalar maxGT, so both paths give the same bits.
func MaxPool2(x []float32, c, h, w int, out []float32, seed float32, seeded bool) {
	oh, ow := h/2, w/2
	if c <= 0 || oh <= 0 || ow <= 0 || len(x) < c*h*w || len(out) < c*oh*ow {
		panic(fmt.Sprintf("mat: MaxPool2 %dx%dx%d image (%d) into %d outputs", c, h, w, len(x), len(out)))
	}
	nv := 0
	if hasAVX2 {
		nv = ow &^ 7
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			r0 := x[(ch*h+2*oy)*w:][:2*ow]
			r1 := x[(ch*h+2*oy+1)*w:][:2*ow]
			dst := out[(ch*oh+oy)*ow:][:ow]
			if nv > 0 {
				maxPool2RowAVX(&dst[0], &r0[0], &r1[0], nv, seed, seeded)
			}
			maxPool2Row(dst[nv:], r0[2*nv:], r1[2*nv:], seed, seeded)
		}
	}
}
