// Package isp implements the five-stage image signal processing pipeline
// of the paper (Fig. 3a) — demosaic (DM), denoise (DN), color map (CM),
// gamut map (GM), tone map (TM) — and the nine approximate pipeline
// configurations S0–S8 of Table II obtained by skipping stages.
//
// Stage semantics mirror Buckler et al. (ICCV'17), the pipeline the paper
// builds on: DM reconstructs RGB from the RGGB mosaic, DN removes sensor
// noise, CM inverts the sensor's spectral crosstalk, GM compresses
// out-of-gamut highlights, and TM applies the display transfer curve that
// the downstream 8-bit perception stage assumes.
package isp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hsas/internal/camera"
	"hsas/internal/cpufeat"
	"hsas/internal/mat"
	"hsas/internal/obs"
	"hsas/internal/raster"
)

// Stage identifies one ISP pipeline stage.
type Stage uint8

// Pipeline stages in canonical execution order.
const (
	Demosaic Stage = iota
	Denoise
	ColorMap
	GamutMap
	ToneMap
)

func (s Stage) String() string {
	switch s {
	case Demosaic:
		return "DM"
	case Denoise:
		return "DN"
	case ColorMap:
		return "CM"
	case GamutMap:
		return "GM"
	case ToneMap:
		return "TM"
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Config is one ISP knob setting: a subset of stages (Table II). Demosaic
// is mandatory — RAW mosaics are unusable downstream otherwise — matching
// every configuration in the paper.
type Config struct {
	ID     string
	Stages []Stage
}

// Has reports whether the configuration includes the given stage.
func (c Config) Has(s Stage) bool {
	for _, st := range c.Stages {
		if st == s {
			return true
		}
	}
	return false
}

func (c Config) String() string {
	out := c.ID + " : ("
	for i, s := range c.Stages {
		if i > 0 {
			out += ", "
		}
		out += s.String()
	}
	return out + ")"
}

// Knobs lists the nine ISP configurations of Table II, indexed S0–S8.
var Knobs = []Config{
	{"S0", []Stage{Demosaic, Denoise, ColorMap, GamutMap, ToneMap}},
	{"S1", []Stage{Demosaic, ColorMap, GamutMap, ToneMap}},
	{"S2", []Stage{Demosaic, Denoise, GamutMap, ToneMap}},
	{"S3", []Stage{Demosaic, Denoise, ColorMap, ToneMap}},
	{"S4", []Stage{Demosaic, Denoise, ColorMap, GamutMap}},
	{"S5", []Stage{Demosaic, Denoise}},
	{"S6", []Stage{Demosaic, ColorMap}},
	{"S7", []Stage{Demosaic, GamutMap}},
	{"S8", []Stage{Demosaic, ToneMap}},
}

// ByID returns the configuration with the given ID (e.g. "S3").
func ByID(id string) (Config, bool) {
	for _, c := range Knobs {
		if c.ID == id {
			return c, true
		}
	}
	return Config{}, false
}

// XavierRuntimeMs is the paper's profiled runtime of each configuration on
// the NVIDIA AGX Xavier at 512×256 (Table II). These numbers seed the
// platform timing model; the Go implementation's own runtimes are measured
// by BenchmarkTable2ISPKnobs.
var XavierRuntimeMs = map[string]float64{
	"S0": 21.5, "S1": 18.9, "S2": 20.9, "S3": 3.3, "S4": 3.2,
	"S5": 3.1, "S6": 3.2, "S7": 3.1, "S8": 3.2,
}

// Process runs the configured pipeline over a RAW mosaic into new
// buffers; see ProcessObservedInto.
func (c Config) Process(raw *raster.Bayer) *raster.RGB {
	return c.ProcessObservedInto(raw, nil, nil, raster.FullSpans(raw.W, raw.H), 1, nil)
}

// ProcessInto is ProcessObservedInto over every pixel, without an
// observer.
func (c Config) ProcessInto(raw *raster.Bayer, out, tmp *raster.RGB, workers int) *raster.RGB {
	return c.ProcessObservedInto(raw, out, tmp, raster.FullSpans(raw.W, raw.H), workers, nil)
}

// ProcessObservedInto runs the configured pipeline over the pixels of
// spans (one per row of raw) with caller-held buffers and row-parallel
// kernels. Stages execute in canonical order regardless of their order
// in the Config. out receives the demosaic result; tmp is the ping-pong
// target when the configuration denoises (pass nil to allocate either).
// The returned image is whichever buffer holds the final stage's output
// — callers reusing buffers across frames must use the return value,
// not assume out.
//
// The spans only bound what each stage computes. Demosaic covers them
// dilated by one row and one column when the configuration denoises,
// since the 3×3 filter reads that ring (raster.Dilated); every other
// stage covers the spans. Each pixel keeps the border code of its place
// in the frame, so the result holds the whole frame's bits on every
// pixel of spans whatever the spans, the worker count or the buffers'
// old contents. The pixels of raw the demosaic reads (those of its own
// pixels dilated by one) must hold the frame. Pixels a stage does not
// cover are left as they were, so the result holds its old contents
// outside spans.
//
// With an enabled observer each executed stage records one wall-time
// sample of hsas_isp_stage_seconds and one trace span (the per-stage
// timings Table II profiles per configuration). A nil observer reads no
// clock and allocates nothing.
func (c Config) ProcessObservedInto(raw *raster.Bayer, out, tmp *raster.RGB, spans []raster.Span, workers int, o *obs.Observer) *raster.RGB {
	if err := raster.CheckSpans(spans, raw.W, raw.H); err != nil {
		panic("isp: " + err.Error())
	}
	ring := 0
	if c.Has(Denoise) {
		ring = 1
	}
	var img *raster.RGB
	for s := Demosaic; s <= ToneMap; s++ {
		if s != Demosaic && !c.Has(s) {
			continue
		}
		var start time.Time
		if o.Enabled() {
			start = time.Now()
		}
		switch s {
		case Demosaic:
			img = demosaic(raw, out, spans, ring, workers)
		case Denoise:
			img = denoise(img, tmp, spans, workers)
		case ColorMap:
			colorMap(img, spans, workers)
		case GamutMap:
			gamutMap(img, spans, workers)
		case ToneMap:
			toneMap(img, spans, workers)
		}
		if o.Enabled() {
			o.Registry().Histogram("hsas_isp_stage_seconds", "wall time per executed ISP stage",
				obs.DefBuckets, obs.L("stage", s.String()), obs.L("config", c.ID)).Observe(time.Since(start).Seconds())
			o.Tracer().Span(s.String(), "isp", 0, start, map[string]any{"config": c.ID})
		}
	}
	return img
}

// A pass is one stage's run over a frame's spans, as the goroutines of
// its row split read it. Its row kernels are method values bound once,
// when the pass is built, and passes are recycled through passes, so a
// stage allocates nothing but what mat.ParallelRows starts.
type pass struct {
	raw      *raster.Bayer // demosaic's input
	src, dst *raster.RGB   // the stage's input and output; one image in place
	spans    []raster.Span
	ring     int // the stage covers spans dilated by ring
	lo       int // the row split's first row
	kernels  [ToneMap + 1]func(i0, i1 int)
}

var passes = sync.Pool{New: func() any {
	p := &pass{}
	p.kernels = [...]func(i0, i1 int){p.demosaicRows, p.denoiseRows, p.colorMapRows, p.gamutMapRows, p.toneMapRows}
	return p
}}

// run runs stage s's row kernel from src (or raw) into dst over spans
// dilated by ring, with the rows split over workers.
func run(s Stage, raw *raster.Bayer, src, dst *raster.RGB, spans []raster.Span, ring, workers int) {
	p := passes.Get().(*pass)
	lo, hi := raster.SpanRows(spans)
	if lo < hi {
		lo, hi = max(lo-ring, 0), min(hi+ring, len(spans))
	}
	p.raw, p.src, p.dst, p.spans, p.ring, p.lo = raw, src, dst, spans, ring, lo
	mat.ParallelRows(hi-lo, workers, p.kernels[s])
	p.raw, p.src, p.dst, p.spans = nil, nil, nil, nil
	passes.Put(p)
}

// span returns the columns of row y the pass covers.
func (p *pass) span(y int) raster.Span {
	if p.ring == 0 {
		return p.spans[y]
	}
	return raster.Dilated(p.spans, y, p.ring, p.dst.W)
}

// demosaic reconstructs the pixels of spans dilated by ring of an RGB
// image from an RGGB mosaic with bilinear interpolation of the missing
// samples, into out (allocated when nil) with row-parallel
// interpolation. Every sample of those pixels is written.
func demosaic(raw *raster.Bayer, out *raster.RGB, spans []raster.Span, ring, workers int) *raster.RGB {
	w, h := raw.W, raw.H
	if out == nil {
		out = raster.NewRGB(w, h)
	} else if out.W != w || out.H != h {
		panic(fmt.Sprintf("isp: demosaic buffer is %dx%d, raw is %dx%d", out.W, out.H, w, h))
	}
	run(Demosaic, raw, nil, out, spans, ring, workers)
	return out
}

func (p *pass) demosaicRows(i0, i1 int) {
	raw, out := p.raw, p.dst
	w, h := raw.W, raw.H
	for y := p.lo + i0; y < p.lo+i1; y++ {
		s := p.span(y)
		if s.A == s.B {
			continue
		}
		if y == 0 || y == h-1 || w < 3 {
			for x := s.A; x < s.B; x++ {
				demosaicPixel(raw, out, x, y)
			}
			continue
		}
		if s.A == 0 {
			demosaicPixel(raw, out, 0, y)
		}
		demosaicInterior(raw, out, y, max(s.A, 1), min(s.B, w-1))
		if s.B == w {
			demosaicPixel(raw, out, w-1, y)
		}
	}
}

// demosaicPixel reconstructs one pixel, mirroring the mosaic at the
// frame border.
func demosaicPixel(raw *raster.Bayer, out *raster.RGB, x, y int) {
	i := y*raw.W + x
	switch raster.ColorAt(x, y) {
	case raster.CFARed:
		out.R[i] = raw.At(x, y)
		out.G[i] = avg4(raw.At(x-1, y), raw.At(x+1, y), raw.At(x, y-1), raw.At(x, y+1))
		out.B[i] = avg4(raw.At(x-1, y-1), raw.At(x+1, y-1), raw.At(x-1, y+1), raw.At(x+1, y+1))
	case raster.CFABlue:
		out.B[i] = raw.At(x, y)
		out.G[i] = avg4(raw.At(x-1, y), raw.At(x+1, y), raw.At(x, y-1), raw.At(x, y+1))
		out.R[i] = avg4(raw.At(x-1, y-1), raw.At(x+1, y-1), raw.At(x-1, y+1), raw.At(x+1, y+1))
	default: // green: red/blue neighbors depend on the row parity
		out.G[i] = raw.At(x, y)
		if y%2 == 0 { // R G R G row: horizontal neighbors are red
			out.R[i] = avg2(raw.At(x-1, y), raw.At(x+1, y))
			out.B[i] = avg2(raw.At(x, y-1), raw.At(x, y+1))
		} else { // G B G B row: horizontal neighbors are blue
			out.B[i] = avg2(raw.At(x-1, y), raw.At(x+1, y))
			out.R[i] = avg2(raw.At(x, y-1), raw.At(x, y+1))
		}
	}
}

// demosaicInterior is demosaicPixel for x in [a, b) ⊆ [1, w-1) of an
// interior row y, where no neighbor needs mirroring: the same averages
// over the neighbor rows up, mid and dn, one loop per CFA color of the
// row.
func demosaicInterior(raw *raster.Bayer, out *raster.RGB, y, a, b int) {
	w := raw.W
	up, mid, dn := raw.Pix[(y-1)*w:y*w], raw.Pix[y*w:(y+1)*w], raw.Pix[(y+1)*w:(y+2)*w]
	oR, oG, oB := out.R[y*w:(y+1)*w], out.G[y*w:(y+1)*w], out.B[y*w:(y+1)*w]
	// own is the non-green color this row samples (red at even x of an
	// R G R G row, blue at odd x of a G B G B row); other is the color
	// sampled by the rows above and below. The rest of the row is green.
	own, other := oR, oB
	parity := 0
	if y%2 == 1 {
		own, other = oB, oR
		parity = 1
	}
	first := a + (a+parity)&1 // the first column of [a, b) of the row's own color
	for x := first; x < b; x += 2 {
		own[x] = mid[x]
		oG[x] = avg4(mid[x-1], mid[x+1], up[x], dn[x])
		other[x] = avg4(up[x-1], up[x+1], dn[x-1], dn[x+1])
	}
	for x := a + (a+parity+1)&1; x < b; x += 2 {
		oG[x] = mid[x]
		own[x] = avg2(mid[x-1], mid[x+1])
		other[x] = avg2(up[x], dn[x])
	}
}

func avg2(a, b float32) float32       { return (a + b) / 2 }
func avg4(a, b, c, d float32) float32 { return (a + b + c + d) / 4 }

// Bilateral denoise parameters: a 3×3 spatial kernel with a range kernel
// wide enough to smooth sensor noise but narrow enough to preserve the
// lane-marking edges the perception stage depends on.
const (
	denoiseRangeSigma = 0.08
)

// denoise applies an edge-preserving 3×3 bilateral filter per channel
// to the pixels of spans of img into out (allocated when nil) with
// row-parallel kernels and returns out. The filter reads only img, at
// the spans dilated by one, and writes every pixel of spans of out, so
// out may be recycled but must not alias img.
func denoise(img, out *raster.RGB, spans []raster.Span, workers int) *raster.RGB {
	w, h := img.W, img.H
	if out == nil {
		out = raster.NewRGB(w, h)
	} else if out.W != w || out.H != h {
		panic(fmt.Sprintf("isp: denoise buffer is %dx%d, image is %dx%d", out.W, out.H, w, h))
	}
	if out == img {
		panic("isp: denoise output aliases input")
	}
	run(Denoise, nil, img, out, spans, 0, workers)
	return out
}

// denoiseSpatial holds the 3×3 spatial weights spatial[dy+1] *
// spatial[dx+1] of the bilateral filter, dy-major, for gaussian taps
// 0.60, 1.0, 0.60 at |d| = 1, 0, 1.
var denoiseSpatial = func() (k [9]float32) {
	spatial := [3]float32{0.60, 1.0, 0.60}
	for dy := range spatial {
		for dx := range spatial {
			k[3*dy+dx] = spatial[dy] * spatial[dx]
		}
	}
	return k
}()

const denoiseInv2s2 = float32(1 / (2 * denoiseRangeSigma * denoiseRangeSigma))

// denoiseRows filters the pass's spans. An interior row's columns from
// the span's first interior column run through denoiseInteriorRow; the
// frame's border pixels take denoisePixel.
func (p *pass) denoiseRows(i0, i1 int) {
	img, out := p.src, p.dst
	w, h := img.W, img.H
	planes := [3][2][]float32{{img.R, out.R}, {img.G, out.G}, {img.B, out.B}}
	for _, pl := range planes {
		src, dst := pl[0], pl[1]
		for y := p.lo + i0; y < p.lo+i1; y++ {
			s := p.spans[y]
			if s.A == s.B {
				continue
			}
			if y == 0 || y == h-1 || w < 3 {
				for x := s.A; x < s.B; x++ {
					dst[y*w+x] = denoisePixel(src, w, h, x, y)
				}
				continue
			}
			if s.A == 0 {
				dst[y*w] = denoisePixel(src, w, h, 0, y)
			}
			// The window columns [a-1, b+1) around the interior columns [a, b).
			if a, b := max(s.A, 1), min(s.B, w-1); a < b {
				lo, hi := a-1, b+1
				denoiseInteriorRow(src[(y-1)*w+lo:(y-1)*w+hi], src[y*w+lo:y*w+hi], src[(y+1)*w+lo:(y+1)*w+hi], dst[y*w+lo:y*w+hi])
			}
			if s.B == w {
				dst[y*w+w-1] = denoisePixel(src, w, h, w-1, y)
			}
		}
	}
}

// denoisePixel filters one pixel of a w×h plane, skipping taps outside
// the frame.
func denoisePixel(src []float32, w, h, x, y int) float32 {
	c := src[y*w+x]
	var sum, wsum float32
	for dy := -1; dy <= 1; dy++ {
		yy := y + dy
		if yy < 0 || yy >= h {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			xx := x + dx
			if xx < 0 || xx >= w {
				continue
			}
			sum, wsum = bilateralTap(sum, wsum, denoiseSpatial[3*(dy+1)+dx+1], src[yy*w+xx], c)
		}
	}
	return sum / wsum
}

// denoiseAVX selects denoiseInteriorAVX for the interior columns. It is
// set once from the CPU probe; tests clear it to run the pure-Go path.
var denoiseAVX = cpufeat.AVX2

// denoiseInteriorRow is denoiseInterior with the columns in groups of
// eight through the bit-identical AVX kernel when the CPU has it; the
// last (len(mid)-2) mod 8 columns, or all of them without AVX, run the
// pure-Go loop. The rows are a window of the frame's rows, so the
// groups start at the window's first interior column.
func denoiseInteriorRow(up, mid, dn, dst []float32) {
	n := len(mid)
	if v := (n - 2) &^ 7; denoiseAVX && v > 0 {
		up, dn, dst = up[:n], dn[:n], dst[:n]
		denoiseInteriorAVX(&up[0], &mid[0], &dn[0], &dst[0], v, &denoiseSpatial, denoiseInv2s2)
		up, mid, dn, dst = up[v:], mid[v:], dn[v:], dst[v:]
	}
	denoiseInterior(up, mid, dn, dst)
}

// denoiseInterior is denoisePixel for x in [1, len(mid)-1) of a window
// of an interior row whose neighbor rows are up, mid and dn: all nine
// taps exist, so they run unrolled in denoisePixel's order (float32 sums
// depend on it).
func denoiseInterior(up, mid, dn, dst []float32) {
	k := &denoiseSpatial
	n := len(mid)
	up, dn, dst = up[:n], dn[:n], dst[:n]
	for x := 1; x < n-1; x++ {
		c := mid[x]
		var sum, wsum float32
		sum, wsum = bilateralTap(sum, wsum, k[0], up[x-1], c)
		sum, wsum = bilateralTap(sum, wsum, k[1], up[x], c)
		sum, wsum = bilateralTap(sum, wsum, k[2], up[x+1], c)
		sum, wsum = bilateralTap(sum, wsum, k[3], mid[x-1], c)
		sum, wsum = bilateralTap(sum, wsum, k[4], c, c)
		sum, wsum = bilateralTap(sum, wsum, k[5], mid[x+1], c)
		sum, wsum = bilateralTap(sum, wsum, k[6], dn[x-1], c)
		sum, wsum = bilateralTap(sum, wsum, k[7], dn[x], c)
		sum, wsum = bilateralTap(sum, wsum, k[8], dn[x+1], c)
		dst[x] = sum / wsum
	}
}

// bilateralTap adds the tap v with spatial weight s to the running sums
// of the pixel whose center value is c.
func bilateralTap(sum, wsum, s, v, c float32) (float32, float32) {
	d := v - c
	wt := s * expFast(-d*d*denoiseInv2s2)
	return sum + wt*v, wsum + wt
}

// expFast approximates e^x for filter weights as the limit form
// (1 + x/16)^16, computed with four squarings, and 0 below the cutoff
// x < -8. On [-8, 0] it is monotone; its absolute error peaks at 1.73%
// near x = -1.96, and its relative error grows toward the cutoff,
// reaching 95% at x = -8.
func expFast(x float32) float32 {
	if x < -8 {
		return 0
	}
	v := 1 + x/16
	v *= v
	v *= v
	v *= v
	v *= v
	return v
}

// ColorMapMatrix is the color-correction matrix: the inverse of the
// sensor crosstalk matrix, computed once at init.
var ColorMapMatrix = invert3(camera.SensorMatrix)

func invert3(m [3][3]float64) [3][3]float32 {
	a, b, c := m[0][0], m[0][1], m[0][2]
	d, e, f := m[1][0], m[1][1], m[1][2]
	g, h, i := m[2][0], m[2][1], m[2][2]
	det := a*(e*i-f*h) - b*(d*i-f*g) + c*(d*h-e*g)
	if math.Abs(det) < 1e-12 {
		panic("isp: sensor matrix is singular")
	}
	inv := [3][3]float64{
		{(e*i - f*h) / det, (c*h - b*i) / det, (b*f - c*e) / det},
		{(f*g - d*i) / det, (a*i - c*g) / det, (c*d - a*f) / det},
		{(d*h - e*g) / det, (b*g - a*h) / det, (a*e - b*d) / det},
	}
	var out [3][3]float32
	for r := 0; r < 3; r++ {
		for cc := 0; cc < 3; cc++ {
			out[r][cc] = float32(inv[r][cc])
		}
	}
	return out
}

// colorMap applies the color-correction matrix in place to the pixels
// of spans, restoring scene colorimetry from the sensor's crosstalked
// channels, with row-parallel execution.
func colorMap(img *raster.RGB, spans []raster.Span, workers int) {
	run(ColorMap, nil, img, img, spans, 0, workers)
}

func (p *pass) colorMapRows(i0, i1 int) {
	img, w := p.dst, p.dst.W
	m := &ColorMapMatrix
	for y := p.lo + i0; y < p.lo+i1; y++ {
		s := p.spans[y]
		for i := y*w + s.A; i < y*w+s.B; i++ {
			r, g, b := img.R[i], img.G[i], img.B[i]
			img.R[i] = m[0][0]*r + m[0][1]*g + m[0][2]*b
			img.G[i] = m[1][0]*r + m[1][1]*g + m[1][2]*b
			img.B[i] = m[2][0]*r + m[2][1]*g + m[2][2]*b
		}
	}
}

// Gamut-map knee: values above the knee are compressed smoothly toward 1,
// negatives (possible after color correction) are clipped.
const gamutKnee = 0.85

// gamutMap compresses out-of-gamut values of the pixels of spans in
// place: a soft knee above gamutKnee and a hard clip below zero, with
// row-parallel execution.
func gamutMap(img *raster.RGB, spans []raster.Span, workers int) {
	run(GamutMap, nil, img, img, spans, 0, workers)
}

func (p *pass) gamutMapRows(i0, i1 int) {
	img, w := p.dst, p.dst.W
	for y := p.lo + i0; y < p.lo+i1; y++ {
		s := p.spans[y]
		for _, ch := range [3][]float32{img.R, img.G, img.B} {
			gamutRow(ch[y*w+s.A : y*w+s.B])
		}
	}
}

// gamutRow applies the gamut map to row in place.
func gamutRow(row []float32) {
	for i, v := range row {
		switch {
		case v != v: // NaN from upstream arithmetic: map to black
			row[i] = 0
		case v < 0:
			row[i] = 0
		case v > gamutKnee:
			// Smooth rational knee mapping [knee, inf) -> [knee, 1].
			t := v - gamutKnee
			out := gamutKnee + (1-gamutKnee)*t/(t+(1-gamutKnee))
			if !(out <= 1) { // saturates Inf/Inf artifacts
				out = 1
			}
			row[i] = out
		}
	}
}

// toneMap applies the sRGB-like transfer curve (gamma 1/2.2 with a
// linear toe) in place to the pixels of spans, lifting shadows before
// 8-bit quantization, with row-parallel execution.
func toneMap(img *raster.RGB, spans []raster.Span, workers int) {
	run(ToneMap, nil, img, img, spans, 0, workers)
}

func (p *pass) toneMapRows(i0, i1 int) {
	img, w := p.dst, p.dst.W
	for y := p.lo + i0; y < p.lo+i1; y++ {
		s := p.spans[y]
		for _, ch := range [3][]float32{img.R, img.G, img.B} {
			toneRow(ch[y*w+s.A : y*w+s.B])
		}
	}
}

// toneToe is where the tone curve leaves its linear toe for the power
// segment.
const toneToe float32 = 0.0031

// toneCurve is the reference transfer curve. toneRow computes the same
// bits faster on [toneToe, 1] and calls toneCurve everywhere else.
func toneCurve(v float32) float32 {
	if v <= 0 {
		return 0
	}
	if v < toneToe {
		return 12.92 * v
	}
	return float32(1.055*math.Pow(float64(v), 1/2.4) - 0.055)
}

// Table fast path of the power segment. An input v = 2^e * m with m in
// [1, 2) and e in [toneExpMin, 0] splits as m = x_k * (1 + r), where x_k
// is m truncated to toneMantBits fraction bits, so 0 <= r < 2^-10 and
// v^(1/2.4) = 2^(e/2.4) * x_k^(1/2.4) * (1+r)^(1/2.4). The first two
// factors are tabulated; the third is its binomial series through r^4,
// whose remainder is below 2^-55 relative.
const (
	toneExponent = 1 / 2.4
	toneMantBits = 10
	toneLowBits  = 23 - toneMantBits // float32 fraction bits below the index
	toneExpMin   = -9                // float32 exponent of toneToe
	toneC1       = toneExponent
	toneC2       = toneC1 * (toneExponent - 1) / 2
	toneC3       = toneC2 * (toneExponent - 2) / 3
	toneC4       = toneC3 * (toneExponent - 3) / 4
)

// toneMant holds x_k^(1/2.4) and 2^-23/x_k for every table interval k;
// toneExp holds 2^(e/2.4). Together they take 16.1 KB.
var (
	toneMant = func() (t [1 << toneMantBits]struct{ pow, inv float64 }) {
		for k := range t {
			x := 1 + float64(k)/(1<<toneMantBits)
			t[k].pow = math.Pow(x, toneExponent)
			t[k].inv = 1 / (x * (1 << 23))
		}
		return t
	}()
	toneExp = func() (t [1 - toneExpMin]float64) {
		for i := range t {
			t[i] = math.Pow(2, float64(i+toneExpMin)*toneExponent)
		}
		return t
	}()
)

// toneRow applies toneCurve to row in place. On [toneToe, 1] it
// evaluates the curve in float64 from the tables; that result differs
// from toneCurve's by far less than 2^10 units in the last place of a
// float64, so it rounds to the same float32 unless it lies within 2^10
// of a float32 rounding boundary (the low 29 fraction bits near 2^28).
// Those rare inputs, and every input outside [toneToe, 1] (NaN, the toe,
// values above 1 when the gamut map is skipped), take toneCurve itself.
// TestToneCurveFastExhaustive checks every float32 of the domain.
func toneRow(row []float32) {
	for i, v := range row {
		if !(v >= toneToe && v <= 1) {
			row[i] = toneCurve(v)
			continue
		}
		b := math.Float32bits(v)
		e := int(b>>23) - 127
		m := &toneMant[b>>toneLowBits&(1<<toneMantBits-1)]
		r := float64(b&(1<<toneLowBits-1)) * m.inv
		p := toneExp[e-toneExpMin] * m.pow * (1 + r*(toneC1+r*(toneC2+r*(toneC3+r*toneC4))))
		y := 1.055*p - 0.055
		if math.Float64bits(y)&(1<<29-1)-(1<<28-1<<10) < 1<<11 {
			row[i] = toneCurve(v)
			continue
		}
		row[i] = float32(y)
	}
}
