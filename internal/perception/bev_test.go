package perception

import (
	"fmt"
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/mat"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestQzFastExhaustive checks the table quantizer against the
// math.Round one on every float32 in [0, 1] (every 97th plus the
// boundaries under -race) and on the values the clamp and the ±0/NaN
// branch handle.
func TestQzFastExhaustive(t *testing.T) {
	one := math.Float32bits(1)
	step := uint32(1)
	if raceEnabled {
		step = 97
	}
	check := func(v float32) {
		got, want := qz(v), qzOracle(v)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("qz(%#08x) = %#08x, math.Round quantizer %#08x",
				math.Float32bits(v), math.Float32bits(got), math.Float32bits(want))
		}
	}
	for b := uint32(0); b <= one; b += step {
		v := math.Float32frombits(b)
		if math.Float32bits(qz(v)) != math.Float32bits(qzOracle(v)) {
			check(v)
		}
	}
	for _, v := range []float32{
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800123), // signaling NaNs
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(1), math.Float32frombits(0x80000001), -1e-30, -0.5, -1, -1e9,
		1, math.Nextafter32(1, 2), 1.0001, 2, 255, 1e9, math.MaxFloat32,
		0.5 / 255, math.Nextafter32(0.5/255, 0), math.Nextafter32(0.5/255, 1),
		1.5 / 255, math.Nextafter32(1.5/255, 0), 254.5 / 255, math.Nextafter32(254.5/255, 1),
		0x1p-21, 0x1p-22, 0x1p-24,
	} {
		check(v)
	}
}

// sameResult compares two detection results bit for bit.
func sameResult(a, b Result) bool {
	return math.Float64bits(a.YL) == math.Float64bits(b.YL) &&
		math.Float64bits(a.Curvature) == math.Float64bits(b.Curvature) &&
		a.OK == b.OK && a.LeftFound == b.LeftFound && a.RightFound == b.RightFound &&
		a.CandidatePixels == b.CandidatePixels
}

// checkDetectMatchesOracle runs Detect on img, compares its BEV score,
// mask, any flag and Result with detectOracle's, bit for bit, and
// returns the Result.
func checkDetectMatchesOracle(t *testing.T, name string, d *Detector, img *raster.RGB, roi ROI) Result {
	t.Helper()
	got := d.Detect(img, roi, LookAhead)
	want, wantScore, wantMask, wantAny := detectOracle(d, img, roi, LookAhead)
	sc := d.scratch
	for i := range wantScore.Pix {
		if math.Float32bits(sc.bev.Pix[i]) != math.Float32bits(wantScore.Pix[i]) {
			t.Fatalf("%s: BEV pixel %d = %#08x, oracle %#08x", name, i,
				math.Float32bits(sc.bev.Pix[i]), math.Float32bits(wantScore.Pix[i]))
		}
	}
	n := len(wantMask)
	mask, any := binarizeInto(&sc.bev, make([]float32, n), make([]bool, n))
	if any != wantAny {
		t.Fatalf("%s: any = %v, oracle %v", name, any, wantAny)
	}
	for i := range wantMask {
		if mask[i] != wantMask[i] || sc.mask[i] != wantMask[i] {
			t.Fatalf("%s: mask pixel %d = %v (Detect %v), oracle %v", name, i, mask[i], sc.mask[i], wantMask[i])
		}
	}
	if !sameResult(got, want) {
		t.Fatalf("%s: Detect = %+v, oracle %+v", name, got, want)
	}
	return got
}

// TestScoreBEVMatchesOracle checks the cached footprint, the table
// quantizer and the fused binarization against the per-sample oracles
// on rendered S0 frames: every ROI, one situation per scene, three
// frame sizes, the BEV rows split over teams of one to four workers. It
// compares the BEV score, the mask, the any flag and the full Result.
func TestScoreBEVMatchesOracle(t *testing.T) { forEachDetectPath(t, checkScoreBEVMatchesOracle) }

func checkScoreBEVMatchesOracle(t *testing.T) {
	sits := []world.Situation{
		{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day},
		{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Dotted}, Scene: world.Night},
		{Layout: world.LeftTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Dark},
		{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.DoubleContinuous}, Scene: world.Dawn},
		{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Dusk},
	}
	cfg, _ := isp.ByID("S0")
	// The detectors score on teams of one to four workers in turn.
	teams := []*mat.Team{nil, mat.NewTeam(2), mat.NewTeam(3), mat.NewTeam(4)}
	defer func() {
		for _, team := range teams {
			team.Close()
		}
	}()
	detected := 0
	for ci, cam := range []camera.Camera{camera.Scaled(96, 48), camera.Scaled(192, 96), camera.Default()} {
		for si, sit := range sits {
			tr := world.SituationTrack(sit)
			rend := camera.NewRenderer(tr, cam)
			img := cfg.Process(rend.RenderRAW(camera.PoseOnTrack(tr, world.LeadInLength+4, 0.2, 0.01), int64(si)))
			// One detector per sweep, so the ROI switches also exercise
			// the footprint rebuild.
			d := NewDetector(NewGeometry(cam))
			workers := (ci+si)%len(teams) + 1
			d.Team = teams[workers-1]
			for _, roi := range ROIs {
				name := fmt.Sprintf("%dx%d %v ROI %d workers=%d", cam.Width, cam.Height, sit, roi.ID, workers)
				res := checkDetectMatchesOracle(t, name, d, img, roi)
				if d.scratch.bev.Pix[len(d.scratch.bev.Pix)/2] == 0 {
					t.Fatalf("%s: BEV center not scored", name)
				}
				if res.OK {
					detected++
				}
			}
		}
	}
	if detected == 0 {
		t.Fatal("no frame of the sweep detected a lane")
	}
}

// TestDetectSpecialValuesMatchOracle feeds Detect frames holding NaNs
// (x86's default 0xffc00000 and ones with payloads of their own among
// them), ±Inf, -0, out-of-range samples and samples on and beside qz's
// rounding midpoints, which the quantizer, the bilinear weights and the
// statistics must all carry exactly as the oracles do, NaN payloads
// included.
func TestDetectSpecialValuesMatchOracle(t *testing.T) {
	forEachDetectPath(t, checkDetectSpecialValuesMatchOracle)
}

func checkDetectSpecialValuesMatchOracle(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, cam := range []camera.Camera{camera.Scaled(96, 48), camera.Scaled(192, 96)} {
		mixed := []float32{snan, payloadNaN, defaultNaN, nan, inf, -inf}
		for k, specials := range [][]float32{
			{nan}, {inf}, {-inf}, {negZero}, {nan, inf, -inf, negZero, 1.5, -0.25},
			{defaultNaN}, {defaultNaN, nan, inf, -inf}, mixed, mixed, qzMidpoints(),
		} {
			// One in 11 samples is special; in the second mixed frame
			// every other one, so NaNs with different payloads meet
			// inside one footprint and in the luma sum.
			gap := 11
			if k == 8 {
				gap = 2
			}
			img := raster.NewRGB(cam.Width, cam.Height)
			planes := [][]float32{img.R, img.G, img.B}
			for p, plane := range planes {
				for i := range plane {
					// A bright stripe pattern, so the mask is not empty,
					// sprinkled with the special values.
					v := float32(0.2)
					if (i%cam.Width)%16 < 2 {
						v = 0.9
					}
					if (i*7+p*13)%gap == 0 {
						v = specials[(i+p)%len(specials)]
					}
					plane[i] = v
				}
			}
			d := NewDetector(NewGeometry(cam))
			for _, roi := range ROIs {
				name := fmt.Sprintf("%dx%d specials %d ROI %d", cam.Width, cam.Height, k, roi.ID)
				checkDetectMatchesOracle(t, name, d, img, roi)
			}
		}
	}
}

// TestDetectImageEdgeFootprint uses a hand-built geometry that maps the
// near ROI edge exactly onto the image's last row and the ROI's right
// edge exactly onto its last column, where the bilinear neighbours must
// be clamped back onto the image.
func TestDetectImageEdgeFootprint(t *testing.T) { forEachDetectPath(t, checkDetectImageEdgeFootprint) }

func checkDetectImageEdgeFootprint(t *testing.T) {
	// Pitch 0, fx 15, height 4: v = 60/dist and u = 7.5 - 15*lat/dist,
	// so dist 4 gives v = 15 and lat ±2 give u = 0 and 15.
	geo := Geometry{fx: 15, cx: 7.5, cy: 0, height: 4, sinP: 0, cosP: 1, w: 16, h: 16}
	roi := ROI{ID: 1, NearDist: 4, FarDist: 18, NearLeft: 2, NearRight: -2, FarLeft: 2, FarRight: -2}
	if u, v, _ := geo.GroundToImage(roi.NearDist, roi.NearRight); u != 15 || v != 15 {
		t.Fatalf("near right ROI corner projects to (%v, %v), want (15, 15)", u, v)
	}
	img := raster.NewRGB(16, 16)
	for i := range img.R {
		img.R[i] = 0.2 + float32(i%5)*0.15
		img.G[i] = 0.3 + float32(i%3)*0.2
		img.B[i] = 0.1 + float32(i%7)*0.1
	}
	checkDetectMatchesOracle(t, "edge geometry", NewDetector(geo), img, roi)
}

// TestBinarizeMatchesOracle compares binarizeInto with the four-pass
// oracle on synthetic score rasters — NaN, ±Inf and -0 samples, hot rows
// on and next to the top and bottom border, heights below the 5-tap
// interior, every width from 1 to 24 (each column tail of the row
// kernels) — and checks the smoothed and normalized maps bit for bit as
// well as the mask and the any flag.
func TestBinarizeMatchesOracle(t *testing.T) { forEachDetectPath(t, checkBinarizeMatchesOracle) }

func checkBinarizeMatchesOracle(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	type fill func(x, y, w, h int) float32
	stripes := func(x, y, w, h int) float32 {
		if x%12 < 2 {
			return 0.8
		}
		return 0.2 + float32((x*31+y*17)%7)*0.01
	}
	hotRow := func(row func(h int) int) fill {
		return func(x, y, w, h int) float32 {
			if y == row(h) && x%10 < 3 {
				return 5
			}
			return stripes(x, y, w, h)
		}
	}
	sprinkle := func(v float32) fill {
		return func(x, y, w, h int) float32 {
			if (x*7+y*3)%13 == 0 {
				return v
			}
			return stripes(x, y, w, h)
		}
	}
	fills := map[string]fill{
		"stripes":   stripes,
		"hot y=0":   hotRow(func(int) int { return 0 }),
		"hot y=1":   hotRow(func(int) int { return 1 }),
		"hot y=h-2": hotRow(func(h int) int { return h - 2 }),
		"hot y=h-1": hotRow(func(h int) int { return h - 1 }),
		"NaN":       sprinkle(nan),
		"+Inf":      sprinkle(inf),
		"-Inf":      sprinkle(-inf),
		"-0":        sprinkle(negZero),
		"all -0":    func(int, int, int, int) float32 { return negZero },
		"-0 stripes": func(x, y, w, h int) float32 {
			if x%12 < 2 {
				return 0.8
			}
			return negZero
		},
	}
	for name, f := range fills {
		sizes := [][2]int{{96, 160}, {40, 1}, {40, 2}, {40, 3}, {40, 4}, {40, 5}, {40, 6}, {7, 9}}
		for w := 1; w <= 24; w++ {
			sizes = append(sizes, [2]int{w, 7})
		}
		for _, size := range sizes {
			w, h := size[0], size[1]
			score := raster.NewGray(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					score.Pix[y*w+x] = f(x, y, w, h)
				}
			}
			n := w * h
			smooth, mask := make([]float32, n), make([]bool, n)
			wSmooth, wNorm, wMask := make([]float32, n), make([]float64, n), make([]bool, n)
			// Stale scratch contents must not leak into the result.
			for i := range smooth {
				smooth[i], mask[i] = nan, true
			}
			_, any := binarizeInto(score, smooth, mask)
			_, wantAny := binarizeOracle(score, wSmooth, wNorm, wMask)
			tag := fmt.Sprintf("%s %dx%d", name, w, h)
			if any != wantAny {
				t.Fatalf("%s: any = %v, oracle %v", tag, any, wantAny)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(smooth[i]) != math.Float32bits(wSmooth[i]) {
					t.Fatalf("%s: smooth[%d] = %v, oracle %v", tag, i, smooth[i], wSmooth[i])
				}
				if mask[i] != wMask[i] {
					t.Fatalf("%s: mask[%d] = %v, oracle %v", tag, i, mask[i], wMask[i])
				}
			}
		}
	}
}
