package isp

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/raster"
)

func TestKnobsMatchTable2(t *testing.T) {
	if len(Knobs) != 9 {
		t.Fatalf("knob count = %d, want 9", len(Knobs))
	}
	want := map[string][]Stage{
		"S0": {Demosaic, Denoise, ColorMap, GamutMap, ToneMap},
		"S1": {Demosaic, ColorMap, GamutMap, ToneMap},
		"S2": {Demosaic, Denoise, GamutMap, ToneMap},
		"S3": {Demosaic, Denoise, ColorMap, ToneMap},
		"S4": {Demosaic, Denoise, ColorMap, GamutMap},
		"S5": {Demosaic, Denoise},
		"S6": {Demosaic, ColorMap},
		"S7": {Demosaic, GamutMap},
		"S8": {Demosaic, ToneMap},
	}
	for _, c := range Knobs {
		w, ok := want[c.ID]
		if !ok {
			t.Fatalf("unexpected knob %s", c.ID)
		}
		if len(w) != len(c.Stages) {
			t.Fatalf("%s stages = %v, want %v", c.ID, c.Stages, w)
		}
		for i := range w {
			if c.Stages[i] != w[i] {
				t.Fatalf("%s stages = %v, want %v", c.ID, c.Stages, w)
			}
		}
		if !c.Has(Demosaic) {
			t.Fatalf("%s lacks demosaic", c.ID)
		}
		if _, ok := XavierRuntimeMs[c.ID]; !ok {
			t.Fatalf("%s has no Xavier runtime", c.ID)
		}
	}
}

func TestByID(t *testing.T) {
	c, ok := ByID("S3")
	if !ok || c.ID != "S3" {
		t.Fatalf("ByID(S3) = %v %v", c, ok)
	}
	if _, ok := ByID("S9"); ok {
		t.Fatal("ByID(S9) should not exist")
	}
}

// flatBayer builds a mosaic of a constant scene color pushed through the
// sensor crosstalk matrix (no noise), for exact demosaic checks.
func flatBayer(w, h int, r, g, b float64) *raster.Bayer {
	m := camera.SensorMatrix
	raw := raster.NewBayer(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v float64
			switch raster.ColorAt(x, y) {
			case raster.CFARed:
				v = m[0][0]*r + m[0][1]*g + m[0][2]*b
			case raster.CFAGreen:
				v = m[1][0]*r + m[1][1]*g + m[1][2]*b
			default:
				v = m[2][0]*r + m[2][1]*g + m[2][2]*b
			}
			raw.Pix[y*raw.W+x] = float32(v)
		}
	}
	return raw
}

func TestDemosaicConstantField(t *testing.T) {
	raw := raster.NewBayer(8, 8)
	for i := range raw.Pix {
		raw.Pix[i] = 0.5
	}
	img := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, nil)
	for i := range img.R {
		if img.R[i] != 0.5 || img.G[i] != 0.5 || img.B[i] != 0.5 {
			t.Fatalf("constant mosaic demosaiced wrong at %d: %v %v %v", i, img.R[i], img.G[i], img.B[i])
		}
	}
}

func TestDemosaicPlusColorMapRecoversSceneColor(t *testing.T) {
	raw := flatBayer(16, 16, 0.6, 0.4, 0.1)
	img := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, nil)
	colorMap(img, raster.FullSpans(img.W, img.H), nil)
	// Interior pixels must recover the scene color.
	i := 8*16 + 8
	if math.Abs(float64(img.R[i])-0.6) > 1e-3 ||
		math.Abs(float64(img.G[i])-0.4) > 1e-3 ||
		math.Abs(float64(img.B[i])-0.1) > 1e-3 {
		t.Fatalf("recovered color = %v %v %v, want 0.6 0.4 0.1", img.R[i], img.G[i], img.B[i])
	}
}

func TestColorMapMatrixIsInverse(t *testing.T) {
	m := camera.SensorMatrix
	inv := ColorMapMatrix
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += float64(inv[r][k]) * m[k][c]
			}
			want := 0.0
			if r == c {
				want = 1
			}
			if math.Abs(s-want) > 1e-5 {
				t.Fatalf("inv*m[%d][%d] = %v, want %v", r, c, s, want)
			}
		}
	}
}

func TestWithoutColorMapYellowIsDesaturated(t *testing.T) {
	// Yellow scene: R-B gap shrinks through crosstalk without CM.
	raw := flatBayer(16, 16, 0.8, 0.62, 0.12)
	noCM := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, nil)
	withCM := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, nil)
	colorMap(withCM, raster.FullSpans(withCM.W, withCM.H), nil)
	i := 8*16 + 8
	gapNo := noCM.R[i] - noCM.B[i]
	gapWith := withCM.R[i] - withCM.B[i]
	if gapWith <= gapNo+0.1 {
		t.Fatalf("color map does not restore yellow separation: %v vs %v", gapNo, gapWith)
	}
}

func TestDenoiseReducesNoiseVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := raster.NewRGB(32, 32)
	for i := range img.R {
		n := float32(rng.NormFloat64() * 0.05)
		img.R[i] = 0.5 + n
		img.G[i] = 0.5 + n
		img.B[i] = 0.5 + n
	}
	out := denoise(img, nil, raster.FullSpans(img.W, img.H), nil)
	varOf := func(p []float32) float64 {
		var mean float64
		for _, v := range p {
			mean += float64(v)
		}
		mean /= float64(len(p))
		var s float64
		for _, v := range p {
			d := float64(v) - mean
			s += d * d
		}
		return s / float64(len(p))
	}
	if varOf(out.R) > 0.5*varOf(img.R) {
		t.Fatalf("denoise did not reduce variance: %v -> %v", varOf(img.R), varOf(out.R))
	}
}

func TestDenoisePreservesStrongEdges(t *testing.T) {
	img := raster.NewRGB(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			v := float32(0.1)
			if x >= 8 {
				v = 0.9
			}
			img.Set(x, y, v, v, v)
		}
	}
	out := denoise(img, nil, raster.FullSpans(img.W, img.H), nil)
	// Edge contrast across x=7..8 must remain large (bilateral, not box).
	l, r := out.R[8*16+7], out.R[8*16+8]
	if r-l < 0.6 {
		t.Fatalf("edge destroyed by denoise: %v -> %v", l, r)
	}
}

func TestGamutMapClipsAndCompresses(t *testing.T) {
	img := raster.NewRGB(4, 1)
	img.Set(0, 0, -0.2, 0.5, 2.5)
	gamutMap(img, raster.FullSpans(img.W, img.H), nil)
	r, g, b := img.R[0], img.G[0], img.B[0]
	if r != 0 {
		t.Fatalf("negative not clipped: %v", r)
	}
	if g != 0.5 {
		t.Fatalf("in-gamut value changed: %v", g)
	}
	if b < gamutKnee || b >= 1 {
		t.Fatalf("highlight not compressed into [knee, 1): %v", b)
	}
}

func TestGamutMapMonotone(t *testing.T) {
	prev := float32(-1)
	for v := float32(0); v < 3; v += 0.01 {
		img := raster.NewRGB(1, 1)
		img.Set(0, 0, v, 0, 0)
		gamutMap(img, raster.FullSpans(img.W, img.H), nil)
		r := img.R[0]
		if r < prev {
			t.Fatalf("gamut map not monotone at %v", v)
		}
		prev = r
	}
}

func TestToneMapLiftsShadows(t *testing.T) {
	img := raster.NewRGB(1, 1)
	img.Set(0, 0, 0.05, 0.5, 1.0)
	toneMap(img, raster.FullSpans(img.W, img.H), nil)
	r, g, b := img.R[0], img.G[0], img.B[0]
	if r <= 0.05*2 {
		t.Fatalf("shadow not lifted: %v", r)
	}
	if g <= 0.5 {
		t.Fatalf("midtone not lifted: %v", g)
	}
	if math.Abs(float64(b)-1) > 1e-3 {
		t.Fatalf("white point moved: %v", b)
	}
}

func TestToneCurveMonotoneBounded(t *testing.T) {
	prev := float32(-1)
	for v := float32(-0.5); v < 1.5; v += 0.005 {
		o := toneCurve(v)
		if o < prev {
			t.Fatalf("tone curve not monotone at %v", v)
		}
		if v <= 1 && (o < 0 || o > 1.001) {
			t.Fatalf("tone curve out of range at %v: %v", v, o)
		}
		prev = o
	}
}

func TestExpFastAccuracy(t *testing.T) {
	for x := float32(0); x > -8; x -= 0.25 {
		got := float64(expFast(x))
		want := math.Exp(float64(x))
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("expFast(%v) = %v, want %v", x, got, want)
		}
	}
	if expFast(-20) != 0 {
		t.Fatal("expFast far tail should be 0")
	}
}

func TestProcessRunsAllConfigs(t *testing.T) {
	raw := flatBayer(16, 16, 0.5, 0.5, 0.5)
	for _, c := range Knobs {
		img := c.Process(raw)
		if img.W != 16 || img.H != 16 {
			t.Fatalf("%s output size %dx%d", c.ID, img.W, img.H)
		}
		for i, v := range img.G {
			if float64(v) < 0 || math.IsNaN(float64(v)) {
				t.Fatalf("%s produced invalid pixel %d: %v", c.ID, i, v)
			}
		}
	}
}

func TestConfigString(t *testing.T) {
	c, _ := ByID("S5")
	if got := c.String(); got != "S5 : (DM, DN)" {
		t.Fatalf("String = %q", got)
	}
}
