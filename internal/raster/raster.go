// Package raster provides the image substrate shared by the synthetic
// camera, the ISP pipeline and the perception stage: planar float32 RGB
// frames, single-channel gray frames, RGGB Bayer mosaics, bilinear
// resizing and PPM export for debugging.
//
// All pixel values are linear-light floats nominally in [0, 1]; stages
// may transiently exceed the range (e.g. specular highlights before gamut
// mapping), so clamping is explicit, not implicit.
package raster

import "fmt"

// Gray is a single-channel float32 image, row-major.
type Gray struct {
	W, H int
	Pix  []float32
}

// NewGray returns a zeroed gray image.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid gray dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (g *Gray) At(x, y int) float32 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (g *Gray) Set(x, y int, v float32) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	c := NewGray(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// RGB is a planar three-channel float32 image.
type RGB struct {
	W, H    int
	R, G, B []float32
}

// NewRGB returns a zeroed RGB image.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid rgb dimensions %dx%d", w, h))
	}
	n := w * h
	return &RGB{W: w, H: h, R: make([]float32, n), G: make([]float32, n), B: make([]float32, n)}
}

// At returns the (r, g, b) triple at (x, y); out-of-bounds reads return black.
func (im *RGB) At(x, y int) (r, g, b float32) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0, 0, 0
	}
	i := y*im.W + x
	return im.R[i], im.G[i], im.B[i]
}

// Set writes the triple at (x, y); out-of-bounds writes are dropped.
func (im *RGB) Set(x, y int, r, g, b float32) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := y*im.W + x
	im.R[i], im.G[i], im.B[i] = r, g, b
}

// Clone returns a deep copy.
func (im *RGB) Clone() *RGB {
	c := NewRGB(im.W, im.H)
	copy(c.R, im.R)
	copy(c.G, im.G)
	copy(c.B, im.B)
	return c
}

// Luma returns the Rec.709 luma of the image as a gray image.
func (im *RGB) Luma() *Gray {
	g := NewGray(im.W, im.H)
	for i := range g.Pix {
		g.Pix[i] = 0.2126*im.R[i] + 0.7152*im.G[i] + 0.0722*im.B[i]
	}
	return g
}

// Clamp clips all channels into [0, 1] in place and returns the image.
func (im *RGB) Clamp() *RGB {
	for _, ch := range [][]float32{im.R, im.G, im.B} {
		for i, v := range ch {
			if v < 0 {
				ch[i] = 0
			} else if v > 1 {
				ch[i] = 1
			}
		}
	}
	return im
}

// CFA identifies a color-filter-array cell color.
type CFA uint8

// Bayer RGGB cell colors.
const (
	CFARed CFA = iota
	CFAGreen
	CFABlue
)

// Bayer is a RAW sensor mosaic with an RGGB pattern:
//
//	R G R G ...
//	G B G B ...
type Bayer struct {
	W, H int
	Pix  []float32
}

// NewBayer returns a zeroed RGGB mosaic.
func NewBayer(w, h int) *Bayer {
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("raster: bayer dimensions must be positive and even, got %dx%d", w, h))
	}
	return &Bayer{W: w, H: h, Pix: make([]float32, w*h)}
}

// ColorAt returns the CFA color of cell (x, y) in the RGGB pattern.
func ColorAt(x, y int) CFA {
	switch {
	case y%2 == 0 && x%2 == 0:
		return CFARed
	case y%2 == 1 && x%2 == 1:
		return CFABlue
	default:
		return CFAGreen
	}
}

// At returns the raw sample at (x, y) with mirrored border handling, so
// demosaic kernels can run uniformly over the full frame.
func (b *Bayer) At(x, y int) float32 {
	x = reflect(x, b.W)
	y = reflect(y, b.H)
	return b.Pix[y*b.W+x]
}

// Set writes the raw sample at (x, y); out-of-bounds writes are dropped.
func (b *Bayer) Set(x, y int, v float32) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	b.Pix[y*b.W+x] = v
}

// reflect mirrors coordinate i into [0, n).
func reflect(i, n int) int {
	if i < 0 {
		i = -i - 1
	}
	if i >= n {
		i = 2*n - 1 - i
	}
	if i < 0 {
		i = 0
	} else if i >= n {
		i = n - 1
	}
	return i
}

// Bilerp blends the four corners of a bilinear footprint: v00 and v10
// on the upper source row, v01 and v11 on the lower, fx and fy the
// position's offsets from v00 and gx = 1-fx, gy = 1-fy their
// complements. It is the one definition of the blend: ResizeInto and
// the perception BEV gather both evaluate it, so both round alike.
//
// The four terms are summed left to right, and a NaN sum is the one
// x86 returns with the left operand first: the left operand where it
// is NaN, else the right. The compiler may put either operand of a sum
// first, which changes only which NaN a sum returns, so a NaN blend is
// summed again by leftSum, which fixes that order. One compare per
// blend keeps Bilerp small enough to inline.
func Bilerp(v00, v10, v01, v11, fx, gx, fy, gy float32) float32 {
	t0, t1, t2, t3 := v00*gx*gy, v10*fx*gy, v01*gx*fy, v11*fx*fy
	if v := t0 + t1 + t2 + t3; v == v {
		return v
	}
	return leftSum(t0, t1, t2, t3)
}

// leftSum is t0 + t1 + t2 + t3 summed left to right, every sum whose
// left operand is NaN returning that operand. A sum whose only NaN is
// its right operand returns it in either operand order, so the result
// does not depend on the order the compiler picks.
func leftSum(t0, t1, t2, t3 float32) float32 {
	if t0 == t0 {
		t0 += t1
	}
	if t0 == t0 {
		t0 += t2
	}
	if t0 == t0 {
		t0 += t3
	}
	return t0
}

// axisTap is a bilinear footprint along one axis: the two source
// indices and the weights f of i1 and g = 1-f of i0.
type axisTap struct {
	i0, i1 int32
	f, g   float32
}

// tapAt is the footprint along an axis of n source pixels at the
// position p, which must not be NaN: p clamped to the axis, i0 its
// integer part, i1 the next pixel clamped to the axis, and f = p - i0.
func tapAt(p float64, n int) axisTap {
	p = clampF(p, 0, float64(n-1))
	i0 := int(p)
	f := float32(p - float64(i0))
	return axisTap{i0: int32(i0), i1: int32(min(i0+1, n-1)), f: f, g: 1 - f}
}

// resizeCols is how many output columns ResizeInto footprints at a
// time, in a table on its stack; wider outputs take several strips.
const resizeCols = 128

// ResizeInto resamples im into out (whose dimensions select the target
// size) and returns out. Every output pixel is written, so out may be a
// recycled buffer with arbitrary contents. out must not alias im.
//
// Each output pixel is the bilinear sample of its plane at the pixel's
// centre, mapped back to im. The footprints are separable: a column's
// (x0, x1, fx, 1-fx) and a row's (y0, y1, fy, 1-fy) are computed once,
// and every pixel and plane blends its four corners through Bilerp.
func (im *RGB) ResizeInto(out *RGB) *RGB {
	if out == im {
		panic("raster: ResizeInto output aliases input")
	}
	sw, w, h := im.W, out.W, out.H
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	planes := [3][2][]float32{{im.R, out.R}, {im.G, out.G}, {im.B, out.B}}
	var cols [resizeCols]axisTap
	for c0 := 0; c0 < w; c0 += resizeCols {
		xs := cols[:min(w-c0, resizeCols)]
		for i := range xs {
			xs[i] = tapAt((float64(c0+i)+0.5)*sx-0.5, sw)
		}
		for y := 0; y < h; y++ {
			ty := tapAt((float64(y)+0.5)*sy-0.5, im.H)
			for _, p := range planes {
				up := p[0][int(ty.i0)*sw:][:sw]
				dn := p[0][int(ty.i1)*sw:][:sw]
				dst := p[1][y*w+c0:][:len(xs)]
				for i, t := range xs {
					dst[i] = Bilerp(up[t.i0], up[t.i1], dn[t.i0], dn[t.i1], t.f, t.g, ty.f, ty.g)
				}
			}
		}
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp01 clips a float32 into [0, 1].
func Clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
