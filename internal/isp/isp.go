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
	return c.ProcessObservedInto(raw, nil, nil, 0, raw.H, 1, nil)
}

// ProcessInto is ProcessObservedInto over every row, without an
// observer.
func (c Config) ProcessInto(raw *raster.Bayer, out, tmp *raster.RGB, workers int) *raster.RGB {
	return c.ProcessObservedInto(raw, out, tmp, 0, raw.H, workers, nil)
}

// ProcessObservedInto runs the configured pipeline over the output rows
// [lo, hi) with caller-held buffers and row-parallel kernels. Stages
// execute in canonical order regardless of their order in the Config.
// out receives the demosaic result; tmp is the ping-pong target when the
// configuration denoises (pass nil to allocate either). The returned
// image is whichever buffer holds the final stage's output — callers
// reusing buffers across frames must use the return value, not assume
// out.
//
// The range only bounds the stages' row splits. Demosaic covers one more
// row on each side when the configuration denoises, since the 3×3
// filter reads them; every other stage covers [lo, hi). The image's own
// first and last rows keep their border code, and the range's edges are
// interior rows, so rows [lo, hi) of the result are bit for bit those of
// the whole frame [0, H) whatever the range, the worker count or the
// buffers' old contents. The rows of raw the demosaic reads (one beyond
// its own on each side) must hold the frame. Rows a stage does not cover
// are left as they were, so the result holds its old contents outside
// [lo, hi).
//
// With an enabled observer each executed stage records one wall-time
// sample of hsas_isp_stage_seconds and one trace span (the per-stage
// timings Table II profiles per configuration). A nil observer reads no
// clock and allocates nothing.
func (c Config) ProcessObservedInto(raw *raster.Bayer, out, tmp *raster.RGB, lo, hi, workers int, o *obs.Observer) *raster.RGB {
	if lo < 0 || lo > hi || hi > raw.H {
		panic(fmt.Sprintf("isp: rows [%d, %d) outside a raw frame of %d rows", lo, hi, raw.H))
	}
	dlo, dhi := lo, hi
	if c.Has(Denoise) && lo < hi {
		dlo, dhi = max(lo-1, 0), min(hi+1, raw.H)
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
			img = demosaic(raw, out, dlo, dhi, workers)
		case Denoise:
			img = denoise(img, tmp, lo, hi, workers)
		case ColorMap:
			colorMap(img, lo, hi, workers)
		case GamutMap:
			gamutMap(img, lo, hi, workers)
		case ToneMap:
			toneMap(img, lo, hi, workers)
		}
		if o.Enabled() {
			o.Registry().Histogram("hsas_isp_stage_seconds", "wall time per executed ISP stage",
				obs.DefBuckets, obs.L("stage", s.String()), obs.L("config", c.ID)).Observe(time.Since(start).Seconds())
			o.Tracer().Span(s.String(), "isp", 0, start, map[string]any{"config": c.ID})
		}
	}
	return img
}

// demosaic reconstructs rows [lo, hi) of an RGB image from an RGGB
// mosaic with bilinear interpolation of the missing samples, into out
// (allocated when nil) with row-parallel interpolation. Every sample of
// those rows is written.
func demosaic(raw *raster.Bayer, out *raster.RGB, lo, hi, workers int) *raster.RGB {
	w, h := raw.W, raw.H
	if out == nil {
		out = raster.NewRGB(w, h)
	} else if out.W != w || out.H != h {
		panic(fmt.Sprintf("isp: demosaic buffer is %dx%d, raw is %dx%d", out.W, out.H, w, h))
	}
	mat.ParallelRows(hi-lo, workers, func(i0, i1 int) { demosaicRows(raw, out, lo+i0, lo+i1) })
	return out
}

func demosaicRows(raw *raster.Bayer, out *raster.RGB, y0, y1 int) {
	w, h := raw.W, raw.H
	for y := y0; y < y1; y++ {
		if y == 0 || y == h-1 || w < 3 {
			for x := 0; x < w; x++ {
				demosaicPixel(raw, out, x, y)
			}
			continue
		}
		demosaicPixel(raw, out, 0, y)
		demosaicInterior(raw, out, y)
		demosaicPixel(raw, out, w-1, y)
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

// demosaicInterior is demosaicPixel for x in [1, w-1) of an interior row
// y, where no neighbor needs mirroring: the same averages over the
// neighbor rows up, mid and dn, one loop per CFA color of the row.
func demosaicInterior(raw *raster.Bayer, out *raster.RGB, y int) {
	w := raw.W
	up, mid, dn := raw.Pix[(y-1)*w:y*w], raw.Pix[y*w:(y+1)*w], raw.Pix[(y+1)*w:(y+2)*w]
	oR, oG, oB := out.R[y*w:(y+1)*w], out.G[y*w:(y+1)*w], out.B[y*w:(y+1)*w]
	// own is the non-green color this row samples (red at even x of an
	// R G R G row, blue at odd x of a G B G B row); other is the color
	// sampled by the rows above and below. The rest of the row is green.
	own, other := oR, oB
	first := 2
	if y%2 == 1 {
		own, other = oB, oR
		first = 1
	}
	for x := first; x < w-1; x += 2 {
		own[x] = mid[x]
		oG[x] = avg4(mid[x-1], mid[x+1], up[x], dn[x])
		other[x] = avg4(up[x-1], up[x+1], dn[x-1], dn[x+1])
	}
	for x := 3 - first; x < w-1; x += 2 {
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
// to rows [lo, hi) of img into out (allocated when nil) with row-parallel
// kernels and returns out. The filter reads only img, one row beyond the
// range on each side, and writes every pixel of those rows of out, so
// out may be recycled but must not alias img.
func denoise(img, out *raster.RGB, lo, hi, workers int) *raster.RGB {
	w, h := img.W, img.H
	if out == nil {
		out = raster.NewRGB(w, h)
	} else if out.W != w || out.H != h {
		panic(fmt.Sprintf("isp: denoise buffer is %dx%d, image is %dx%d", out.W, out.H, w, h))
	}
	if out == img {
		panic("isp: denoise output aliases input")
	}
	mat.ParallelRows(hi-lo, workers, func(i0, i1 int) { denoiseRows(img, out, lo+i0, lo+i1) })
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

func denoiseRows(img, out *raster.RGB, y0, y1 int) {
	w, h := img.W, img.H
	planes := [3][2][]float32{{img.R, out.R}, {img.G, out.G}, {img.B, out.B}}
	for _, p := range planes {
		src, dst := p[0], p[1]
		for y := y0; y < y1; y++ {
			if y == 0 || y == h-1 || w < 3 {
				for x := 0; x < w; x++ {
					dst[y*w+x] = denoisePixel(src, w, h, x, y)
				}
				continue
			}
			dst[y*w] = denoisePixel(src, w, h, 0, y)
			denoiseInteriorRow(src[(y-1)*w:y*w], src[y*w:(y+1)*w], src[(y+1)*w:(y+2)*w], dst[y*w:(y+1)*w])
			dst[y*w+w-1] = denoisePixel(src, w, h, w-1, y)
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
// pure-Go loop.
func denoiseInteriorRow(up, mid, dn, dst []float32) {
	n := len(mid)
	if v := (n - 2) &^ 7; denoiseAVX && v > 0 {
		up, dn, dst = up[:n], dn[:n], dst[:n]
		denoiseInteriorAVX(&up[0], &mid[0], &dn[0], &dst[0], v, &denoiseSpatial, denoiseInv2s2)
		up, mid, dn, dst = up[v:], mid[v:], dn[v:], dst[v:]
	}
	denoiseInterior(up, mid, dn, dst)
}

// denoiseInterior is denoisePixel for x in [1, w-1) of an interior row
// whose neighbor rows are up, mid and dn: all nine taps exist, so they
// run unrolled in denoisePixel's order (float32 sums depend on it).
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

// colorMap applies the color-correction matrix in place to rows
// [lo, hi), restoring scene colorimetry from the sensor's crosstalked
// channels, with row-parallel execution.
func colorMap(img *raster.RGB, lo, hi, workers int) {
	w := img.W
	m := &ColorMapMatrix
	mat.ParallelRows(hi-lo, workers, func(i0, i1 int) {
		for i := (lo + i0) * w; i < (lo+i1)*w; i++ {
			r, g, b := img.R[i], img.G[i], img.B[i]
			img.R[i] = m[0][0]*r + m[0][1]*g + m[0][2]*b
			img.G[i] = m[1][0]*r + m[1][1]*g + m[1][2]*b
			img.B[i] = m[2][0]*r + m[2][1]*g + m[2][2]*b
		}
	})
}

// Gamut-map knee: values above the knee are compressed smoothly toward 1,
// negatives (possible after color correction) are clipped.
const gamutKnee = 0.85

// gamutMap compresses out-of-gamut values of rows [lo, hi) in place: a
// soft knee above gamutKnee and a hard clip below zero, with row-parallel
// execution.
func gamutMap(img *raster.RGB, lo, hi, workers int) {
	w := img.W
	mat.ParallelRows(hi-lo, workers, func(i0, i1 int) {
		for _, ch := range [3][]float32{img.R, img.G, img.B} {
			row := ch[(lo+i0)*w : (lo+i1)*w]
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
	})
}

// toneMap applies the sRGB-like transfer curve (gamma 1/2.2 with a
// linear toe) in place to rows [lo, hi), lifting shadows before 8-bit
// quantization, with row-parallel execution.
func toneMap(img *raster.RGB, lo, hi, workers int) {
	w := img.W
	mat.ParallelRows(hi-lo, workers, func(i0, i1 int) {
		for _, ch := range [3][]float32{img.R, img.G, img.B} {
			toneRow(ch[(lo+i0)*w : (lo+i1)*w])
		}
	})
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
