package perception

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestBinarizeConstantFieldEmpty: any flat score map must produce no lane
// pixels regardless of its level.
func TestBinarizeConstantFieldEmpty(t *testing.T) {
	for _, level := range []float32{0, 0.2, 0.8, 1} {
		score := raster.NewGray(64, 80)
		for i := range score.Pix {
			score.Pix[i] = level
		}
		if _, any := binarize(score); any {
			t.Fatalf("flat field at %v produced lane pixels", level)
		}
	}
}

// TestBinarizeRejectsStepEdge: a brightness step (shoulder edge) must not
// binarize, while a narrow stripe on the same background must.
func TestBinarizeRejectsStepEdge(t *testing.T) {
	step := raster.NewGray(64, 80)
	for y := 0; y < 80; y++ {
		for x := 0; x < 64; x++ {
			v := float32(0.2)
			if x >= 40 {
				v = 0.5
			}
			step.Set(x, y, v)
		}
	}
	mask, _ := binarize(step)
	edgeCount := 0
	for _, on := range mask {
		if on {
			edgeCount++
		}
	}

	stripe := raster.NewGray(64, 80)
	for y := 0; y < 80; y++ {
		for x := 0; x < 64; x++ {
			v := float32(0.2)
			if x >= 30 && x <= 32 {
				v = 0.8
			}
			stripe.Set(x, y, v)
		}
	}
	mask, any := binarize(stripe)
	if !any {
		t.Fatal("stripe not detected")
	}
	stripeCount := 0
	for _, on := range mask {
		if on {
			stripeCount++
		}
	}
	if edgeCount*4 > stripeCount {
		t.Fatalf("step edge fired %d pixels vs stripe %d", edgeCount, stripeCount)
	}
}

// TestLatColRoundTrip: latToCol and colToLat invert each other on every
// ROI at random rows.
func TestLatColRoundTrip(t *testing.T) {
	d := NewDetector(NewGeometry(camera.Default()))
	rng := rand.New(rand.NewSource(3))
	for _, roi := range ROIs {
		work := *d
		work.BevW = d.bevWidth(roi)
		for trial := 0; trial < 50; trial++ {
			row := rng.Intn(work.BevH)
			col := rng.Float64() * float64(work.BevW-1)
			lat := work.colToLat(roi, float64(row), col)
			back := work.latToCol(roi, row, lat)
			if math.Abs(back-col) > 1e-9 {
				t.Fatalf("ROI %d row %d: col %v -> lat %v -> col %v", roi.ID, row, col, lat, back)
			}
		}
	}
}

// TestROILatAtConsistency: LatAt at the near/far distances matches the
// declared bounds (trapezoid) or the curvature-shifted band (curved).
func TestROILatAtConsistency(t *testing.T) {
	for _, roi := range ROIs {
		nl, nr := roi.LatAt(roi.NearDist)
		if roi.Curv == 0 {
			if nl != roi.NearLeft || nr != roi.NearRight {
				t.Fatalf("ROI %d near bounds: (%v, %v)", roi.ID, nl, nr)
			}
			fl, fr := roi.LatAt(roi.FarDist)
			if fl != roi.FarLeft || fr != roi.FarRight {
				t.Fatalf("ROI %d far bounds: (%v, %v)", roi.ID, fl, fr)
			}
		}
		if nl <= nr {
			t.Fatalf("ROI %d inverted at near", roi.ID)
		}
	}
}

// TestDetectDoubleYellowLane: the double-continuous yellow marking (two
// stripes) must still be tracked as one lane boundary.
func TestDetectDoubleYellowLane(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.DoubleContinuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	cam := camera.Default()
	rend := camera.NewRenderer(tr, cam)
	det := NewDetector(NewGeometry(cam))
	roi, _ := ROIByID(1)
	cfg, _ := isp.ByID("S0")
	img := cfg.Process(rend.RenderRAW(camera.PoseOnTrack(tr, 20, 0, 0), 3))
	res := det.Detect(img, roi, LookAhead)
	if !res.OK {
		t.Fatal("double yellow lane not detected")
	}
	if math.Abs(res.YL) > 0.35 {
		t.Fatalf("double yellow yL = %v for a centered vehicle", res.YL)
	}
}

// TestDetectCurvatureSign: on a curve, the curvature estimate carries the
// correct sign.
func TestDetectCurvatureSign(t *testing.T) {
	for _, tc := range []struct {
		layout world.RoadLayout
		roiID  int
		sign   float64
	}{
		{world.RightTurn, 2, -1},
		{world.LeftTurn, 4, +1},
	} {
		sit := world.Situation{Layout: tc.layout, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
		tr := world.SituationTrack(sit)
		cam := camera.Default()
		rend := camera.NewRenderer(tr, cam)
		det := NewDetector(NewGeometry(cam))
		roi, _ := ROIByID(tc.roiID)
		cfg, _ := isp.ByID("S0")
		s := world.LeadInLength + 10
		img := cfg.Process(rend.RenderRAW(camera.PoseOnTrack(tr, s, 0, 0), 3))
		res := det.Detect(img, roi, LookAhead)
		if !res.OK {
			t.Fatalf("%v: detection failed", tc.layout)
		}
		if res.Curvature*tc.sign <= 0 {
			t.Fatalf("%v: curvature %v has wrong sign", tc.layout, res.Curvature)
		}
	}
}
