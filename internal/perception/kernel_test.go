package perception

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// defaultNaN is the NaN x86 arithmetic produces (Inf·0, Inf-Inf).
var defaultNaN = math.Float32frombits(0xffc00000)

// snan and payloadNaN are NaNs with payloads of their own, a signaling
// one (which arithmetic quiets) and a negative quiet one, so a test can
// tell which of two NaN terms a sum returned.
var (
	snan       = math.Float32frombits(0x7fa00001)
	payloadNaN = math.Float32frombits(0xffd00002)
)

// forEachDetectPath runs check with the AVX2 row kernels dispatched as
// the CPU allows and again with the pure-Go loops forced.
func forEachDetectPath(t *testing.T, check func(t *testing.T)) {
	for _, path := range []struct {
		name string
		avx  bool
	}{{"dispatch", detectAVX}, {"pure-go", false}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(was bool) { detectAVX = was }(detectAVX)
			detectAVX = path.avx
			if !path.avx {
				t.Log("AVX2 kernels off: every row runs the pure-Go loops")
			}
			check(t)
		})
	}
}

// qzMidpoints are samples on qz's rounding midpoints: 0.5, where
// float64(v)·255 + 0.5 is exactly 128, and the float32 neighbours of
// every midpoint (k+0.5)/255, which round to k and k+1.
func qzMidpoints() []float32 {
	vs := []float32{0.5}
	for k := 0; k < 255; k++ {
		m := float32((float64(k) + 0.5) / 255)
		vs = append(vs, math.Nextafter32(m, 0), m, math.Nextafter32(m, 1))
	}
	return vs
}

// TestQzLevelProduct checks the identity scoreRowAVX's quantizer rests
// on: for every level k, qzTab[k] = float32(k)/255 is the float64
// product k·(1/255) rounded to float32.
func TestQzLevelProduct(t *testing.T) {
	for k := range qzTab {
		if got := float32(float64(k) * (1.0 / 255)); math.Float32bits(got) != math.Float32bits(qzTab[k]) {
			t.Fatalf("level %d: k·(1/255) = %#08x, qzTab %#08x", k, math.Float32bits(got), math.Float32bits(qzTab[k]))
		}
	}
}

// TestScoreBEVRowMatchesOracle drives scoreBEVRow with synthetic
// footprints on every BEV width from 96 to 220, so every column tail
// length meets the eight-pixel kernel, and compares each pixel with the
// per-sample oracle at the point the footprint encodes, bit for bit,
// NaN payloads included.
// Samples include x0 = -1 (off the image), x0 = 0 and x0 = xMax (where
// x1 is clamped), fx = 0 and fy = 0 (the blend returns v00 itself, so
// qz sees the pixel values), one- and two-row sources (r0 = r1 or not),
// images one pixel wide, and pixels holding the 0xffc00000 NaN, Go's
// NaN, snan, payloadNaN, ±Inf, ±0, subnormals, out-of-range values and samples on and
// beside qz's rounding midpoints.
func TestScoreBEVRowMatchesOracle(t *testing.T) {
	forEachDetectPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		odd := []float32{
			defaultNaN, float32(math.NaN()), snan, payloadNaN, float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), math.Float32frombits(1), 1e-40, -0.25, 1.5, 1, 2e38,
		}
		specials := append(odd, qzMidpoints()...)
		for w := 96; w <= 220; w++ {
			iw, ih := 1+rng.Intn(200), 1+rng.Intn(2)
			if w%7 == 0 {
				iw = 1
			}
			img := raster.NewRGB(iw, ih)
			for _, plane := range [][]float32{img.R, img.G, img.B} {
				for i := range plane {
					if r := rng.Intn(8); r < 2 {
						plane[i] = odd[rng.Intn(len(odd))]
					} else if r == 2 {
						plane[i] = specials[len(odd)+rng.Intn(len(specials)-len(odd))]
					} else {
						plane[i] = rng.Float32()
					}
				}
			}
			xMax := iw - 1
			samples := make([]bevSample, w)
			for col := range samples {
				s := &samples[col]
				switch r := rng.Intn(10); {
				case r == 0:
					s.x0 = -1
				case r == 1:
					s.x0 = int32(xMax) // u = xMax: fx is 0
				case r == 2:
					s.x0 = 0
				default:
					s.x0 = int32(rng.Intn(iw))
				}
				if s.x0 >= 0 && int(s.x0) < xMax && rng.Intn(3) != 0 {
					s.fx = rng.Float32()
				}
			}
			fr := bevRow{ok: true, r0: 0, r1: (ih - 1) * iw}
			if ih == 2 && rng.Intn(3) != 0 {
				fr.fy = rng.Float32()
			}
			got := make([]float32, w)
			for i := range got {
				got[i] = math.Float32frombits(0x7f812345)
			}
			scoreBEVRow(got, samples, img, fr)
			for col, s := range samples {
				want := float32(0)
				if s.x0 >= 0 {
					want = scoreSampleOracle(img, float64(s.x0)+float64(s.fx), float64(fr.fy))
				}
				if math.Float32bits(got[col]) != math.Float32bits(want) {
					t.Fatalf("width %d image %dx%d col %d (x0 %d fx %v fy %v): %#08x, oracle %#08x",
						w, iw, ih, col, s.x0, s.fx, fr.fy, math.Float32bits(got[col]), math.Float32bits(want))
				}
			}
		}
	})
}

// TestDetectEveryBEVWidth runs Detect against the oracles on every BEV
// width from 96 to 220 on a rendered frame sprinkled with special
// values, so each tail length of the scoring, smoothing and lane-filter
// kernels appears in a full detection.
func TestDetectEveryBEVWidth(t *testing.T) {
	forEachDetectPath(t, func(t *testing.T) {
		sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Dotted}, Scene: world.Day}
		tr := world.SituationTrack(sit)
		cam := camera.Scaled(96, 48)
		cfg, _ := isp.ByID("S0")
		img := cfg.Process(camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, world.LeadInLength+4, 0.1, 0), 1))
		specials := []float32{defaultNaN, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0.5}
		for i := range img.R {
			if i%97 == 0 {
				img.G[i] = specials[(i/97)%len(specials)]
			}
		}
		detected := 0
		for w := 96; w <= 220; w++ {
			d := NewDetector(NewGeometry(cam))
			d.BevW, d.ColsPerMeter = w, 0
			for _, id := range []int{1, 3} {
				roi, _ := ROIByID(id)
				if checkDetectMatchesOracle(t, fmt.Sprintf("BevW %d ROI %d", w, id), d, img, roi).OK {
					detected++
				}
			}
		}
		if detected == 0 {
			t.Fatal("no width detected a lane")
		}
	})
}

// FuzzDetectMatchesOracle decodes a 48×24 frame from the input bytes
// and runs Detect on the chosen ROI against the oracles, with the AVX2
// kernels dispatched and with the pure-Go loops. Each byte becomes one
// sample: below 240 a level in [0, 1], above it one of the special
// values the kernels must carry exactly.
func FuzzDetectMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 120, 239, 240, 10, 200, 245, 30, 250, 255}, uint8(0))
	f.Add([]byte("lane markings at night"), uint8(2))
	stripes := make([]byte, 48*3)
	for i := range stripes {
		if i%16 < 2 {
			stripes[i] = 230
		} else {
			stripes[i] = 40
		}
	}
	f.Add(stripes, uint8(4))
	specials := [16]float32{
		defaultNaN, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, snan, 0.5, math.Float32frombits(1), -0.25, 1.5, 3e38,
		math.Nextafter32(0.5/255, 0), math.Nextafter32(0.5/255, 1), math.Nextafter32(254.5/255, 1), payloadNaN,
	}
	cam := camera.Scaled(48, 24)
	f.Fuzz(func(t *testing.T, data []byte, roiID uint8) {
		if len(data) == 0 {
			return
		}
		img := raster.NewRGB(cam.Width, cam.Height)
		planes := [3][]float32{img.R, img.G, img.B}
		for i := range 3 * len(img.R) {
			b := data[i%len(data)]
			v := float32(b) / 239
			if b >= 240 {
				v = specials[b-240]
			}
			planes[i%3][i/3] = v
		}
		roi := ROIs[int(roiID)%len(ROIs)]
		defer func(was bool) { detectAVX = was }(detectAVX)
		for _, avx := range []bool{detectAVX, false} {
			detectAVX = avx
			d := NewDetector(NewGeometry(cam))
			checkDetectMatchesOracle(t, fmt.Sprintf("avx=%v ROI %d", avx, roi.ID), d, img, roi)
		}
	})
}
