package isp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hsas/internal/raster"
)

// TestGamutMapIdentityBelowKnee: in-gamut values below the knee pass
// through unchanged (the soft knee only compresses highlights).
func TestGamutMapIdentityBelowKnee(t *testing.T) {
	for _, v := range []float32{0, 0.2, 0.5, 0.84} {
		img := raster.NewRGB(1, 1)
		img.Set(0, 0, v, v, v)
		gamutMap(img, raster.FullSpans(img.W, img.H), 1)
		r := img.R[0]
		if r != v {
			t.Fatalf("in-gamut value %v changed to %v", v, r)
		}
	}
}

// TestGamutMapRangeProperty: output always lands in [0, 1] regardless of
// input (including infinities after float32 conversion).
func TestGamutMapRangeProperty(t *testing.T) {
	f := func(v float64) bool {
		img := raster.NewRGB(1, 1)
		img.Set(0, 0, float32(v), 0, 0)
		gamutMap(img, raster.FullSpans(img.W, img.H), 1)
		r := img.R[0]
		return r >= 0 && r <= 1
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDenoisePreservesConstantField: a flat image passes unchanged.
func TestDenoisePreservesConstantField(t *testing.T) {
	img := raster.NewRGB(12, 12)
	for i := range img.R {
		img.R[i], img.G[i], img.B[i] = 0.4, 0.5, 0.6
	}
	out := denoise(img, nil, raster.FullSpans(img.W, img.H), 1)
	for i := range out.R {
		if d := out.R[i] - 0.4; d > 1e-5 || d < -1e-5 {
			t.Fatalf("flat field changed: %v", out.R[i])
		}
	}
}

// TestDemosaicPreservesMean: the mosaic's green-channel energy should be
// approximately preserved through interpolation.
func TestDemosaicPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	raw := raster.NewBayer(32, 32)
	for i := range raw.Pix {
		raw.Pix[i] = float32(0.3 + 0.1*rng.Float64())
	}
	img := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, 1)
	var rawMean, gMean float64
	for _, v := range raw.Pix {
		rawMean += float64(v)
	}
	rawMean /= float64(len(raw.Pix))
	for _, v := range img.G {
		gMean += float64(v)
	}
	gMean /= float64(len(img.G))
	if d := gMean - rawMean; d > 0.02 || d < -0.02 {
		t.Fatalf("green mean drifted: raw %v vs demosaiced %v", rawMean, gMean)
	}
}

// TestPipelineOrderIndependence: a Config's stage order in the slice must
// not matter — Process executes canonically.
func TestPipelineOrderIndependence(t *testing.T) {
	raw := raster.NewBayer(16, 16)
	rng := rand.New(rand.NewSource(4))
	for i := range raw.Pix {
		raw.Pix[i] = float32(rng.Float64())
	}
	a := Config{ID: "X", Stages: []Stage{Demosaic, Denoise, ToneMap}}
	b := Config{ID: "X", Stages: []Stage{ToneMap, Demosaic, Denoise}}
	ia := a.Process(raw)
	ib := b.Process(raw)
	for i := range ia.R {
		if ia.R[i] != ib.R[i] {
			t.Fatalf("stage order changed output at %d", i)
		}
	}
}

// TestApproximateConfigsAreCheaper sanity-checks the Table II economics:
// every approximate config must be profiled faster than the full S0.
func TestApproximateConfigsAreCheaper(t *testing.T) {
	full := XavierRuntimeMs["S0"]
	for id, ms := range XavierRuntimeMs {
		if id == "S0" {
			continue
		}
		if ms >= full {
			t.Fatalf("%s (%v ms) not cheaper than S0 (%v ms)", id, ms, full)
		}
	}
}
