package perception

import (
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

func fullGeo() Geometry { return NewGeometry(camera.Default()) }

func TestGroundToImageRoundTrip(t *testing.T) {
	g := fullGeo()
	for _, p := range [][2]float64{{5, 0}, {10, 1.6}, {20, -2.5}, {8, 3}, {40, 0}} {
		u, v, ok := g.GroundToImage(p[0], p[1])
		if !ok {
			t.Fatalf("GroundToImage(%v) failed", p)
		}
		dist, lat, ok := g.ImageToGround(u, v)
		if !ok {
			t.Fatalf("ImageToGround(%v, %v) failed", u, v)
		}
		if math.Abs(dist-p[0]) > 1e-6 || math.Abs(lat-p[1]) > 1e-6 {
			t.Fatalf("round trip %v -> (%v, %v)", p, dist, lat)
		}
	}
}

func TestGroundToImageOrientation(t *testing.T) {
	g := fullGeo()
	// A point to the left must land left of center; nearer points lower.
	uL, _, _ := g.GroundToImage(10, 2)
	uC, vC, _ := g.GroundToImage(10, 0)
	_, vNear, _ := g.GroundToImage(5, 0)
	if uL >= uC {
		t.Fatalf("left point not left in image: %v vs %v", uL, uC)
	}
	if vNear <= vC {
		t.Fatalf("near point not lower in image: %v vs %v", vNear, vC)
	}
}

func TestImageToGroundAboveHorizon(t *testing.T) {
	g := fullGeo()
	if _, _, ok := g.ImageToGround(256, 0); ok {
		t.Fatal("sky pixel mapped to ground")
	}
}

func TestROITable(t *testing.T) {
	if len(ROIs) != 5 {
		t.Fatalf("ROI count = %d, want 5", len(ROIs))
	}
	for i, r := range ROIs {
		if r.ID != i+1 {
			t.Fatalf("ROI %d has ID %d", i+1, r.ID)
		}
		if r.FarDist <= r.NearDist {
			t.Fatalf("ROI %d distance range inverted", r.ID)
		}
		if r.NearLeft <= r.NearRight || r.FarLeft <= r.FarRight {
			t.Fatalf("ROI %d lateral bounds inverted", r.ID)
		}
		if l, rr := r.LatAt(LookAhead); LookAhead < r.NearDist || LookAhead > r.FarDist || l < 0 || rr > 0 {
			t.Fatalf("ROI %d does not contain the look-ahead point", r.ID)
		}
	}
	// Right-turn ROIs lean right at the far edge; left-turn ROIs left.
	r2, _ := ROIByID(2)
	r3, _ := ROIByID(3)
	r4, _ := ROIByID(4)
	r5, _ := ROIByID(5)
	if (r2.FarLeft+r2.FarRight)/2 >= 0 || (r3.FarLeft+r3.FarRight)/2 >= 0 {
		t.Fatal("right-turn ROIs must lean right")
	}
	if (r4.FarLeft+r4.FarRight)/2 <= 0 || (r5.FarLeft+r5.FarRight)/2 <= 0 {
		t.Fatal("left-turn ROIs must lean left")
	}
	// Fine ROIs reach further than coarse ones (dotted-lane coverage).
	if r3.FarDist <= r2.FarDist || r5.FarDist <= r4.FarDist {
		t.Fatal("fine ROIs must reach further than coarse ROIs")
	}
}

func TestROIByIDMissing(t *testing.T) {
	if _, ok := ROIByID(0); ok {
		t.Fatal("ROI 0 should not exist")
	}
	if _, ok := ROIByID(6); ok {
		t.Fatal("ROI 6 should not exist")
	}
}

func TestROICornersProject(t *testing.T) {
	g := fullGeo()
	r, _ := ROIByID(1)
	pts := r.Corners(g)
	// Far corners above near corners in the image (smaller v).
	if pts[0][1] >= pts[2][1] {
		t.Fatalf("far-left corner not above near-left: %v vs %v", pts[0][1], pts[2][1])
	}
	// Left corners left of right corners.
	if pts[0][0] >= pts[1][0] || pts[2][0] >= pts[3][0] {
		t.Fatalf("corner ordering wrong: %v", pts)
	}
}

// renderAndDetect renders a frame at the pose, runs the ISP config and
// detector, and returns the result plus the ground-truth deviation.
func renderAndDetect(t *testing.T, sit world.Situation, ispID string, roiID int, latOff float64) (Result, float64) {
	t.Helper()
	tr := world.SituationTrack(sit)
	cam := camera.Default()
	rend := camera.NewRenderer(tr, cam)
	s := 20.0
	if sit.Layout != world.Straight {
		s = world.LeadInLength + 8
	}
	vp := camera.PoseOnTrack(tr, s, latOff, 0)
	raw := rend.RenderRAW(vp, 99)
	cfg, _ := isp.ByID(ispID)
	img := cfg.Process(raw)
	det := NewDetector(NewGeometry(cam))
	roi, _ := ROIByID(roiID)
	res := det.Detect(img, roi, LookAhead)

	// Ground truth: lateral offset of the lane center at look-ahead in
	// the vehicle frame.
	px, py := vp.X+LookAhead*math.Cos(vp.Psi), vp.Y+LookAhead*math.Sin(vp.Psi)
	_, lat, ok := tr.Locate(px, py, vp.S, 10, 15, 8)
	if !ok {
		t.Fatal("ground truth locate failed")
	}
	return res, -lat
}

func TestDetectCenteredStraightDay(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	res, truth := renderAndDetect(t, sit, "S0", 1, 0)
	if !res.OK {
		t.Fatal("detection failed on the easiest situation")
	}
	if math.Abs(res.YL-truth) > 0.25 {
		t.Fatalf("yL = %v, truth %v", res.YL, truth)
	}
}

func TestDetectOffsetVehicle(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	// Vehicle 0.5 m left of center: lane center appears 0.5 m to the
	// right -> YL ~ -0.5.
	res, truth := renderAndDetect(t, sit, "S0", 1, 0.5)
	if !res.OK {
		t.Fatal("detection failed")
	}
	if math.Abs(truth+0.5) > 0.05 {
		t.Fatalf("ground truth sanity: %v, want ~-0.5", truth)
	}
	if math.Abs(res.YL-truth) > 0.25 {
		t.Fatalf("yL = %v, truth %v", res.YL, truth)
	}
}

func TestDetectYellowLane(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: world.Day}
	res, truth := renderAndDetect(t, sit, "S0", 1, 0)
	if !res.OK || !res.LeftFound {
		t.Fatalf("yellow lane not tracked: %+v", res)
	}
	if math.Abs(res.YL-truth) > 0.25 {
		t.Fatalf("yL = %v, truth %v", res.YL, truth)
	}
}

func TestDetectRightTurnNeedsMatchingROI(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	wrong, truth := renderAndDetect(t, sit, "S0", 1, 0)
	right, _ := renderAndDetect(t, sit, "S0", 2, 0)
	if !right.OK {
		t.Fatal("right-turn ROI failed on right turn")
	}
	errWrong := math.Abs(wrong.YL - truth)
	if !wrong.OK {
		errWrong = math.Inf(1)
	}
	errRight := math.Abs(right.YL - truth)
	if errRight > 0.4 {
		t.Fatalf("right-turn ROI error too high: %v (truth %v, yl %v)", errRight, truth, right.YL)
	}
	if errRight >= errWrong {
		t.Fatalf("matching ROI not better: wrong %v right %v", errWrong, errRight)
	}
}

func TestDetectNightNoisyWithoutDenoise(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Night}
	res, truth := renderAndDetect(t, sit, "S0", 1, 0)
	if !res.OK {
		t.Fatal("night detection with full ISP failed")
	}
	if math.Abs(res.YL-truth) > 0.35 {
		t.Fatalf("night yL error too high: %v vs %v", res.YL, truth)
	}
}

func TestDetectEmptyImage(t *testing.T) {
	det := NewDetector(fullGeo())
	img := raster.NewRGB(512, 256)
	roi, _ := ROIByID(1)
	res := det.Detect(img, roi, LookAhead)
	if res.OK {
		t.Fatal("detection succeeded on a black frame")
	}
}

func TestBinarizeStatistics(t *testing.T) {
	score := raster.NewGray(10, 10)
	// Flat field: nothing should binarize even with tiny noise.
	for i := range score.Pix {
		score.Pix[i] = 0.2 + float32(i%2)*0.001
	}
	if _, any := binarize(score); any {
		t.Fatal("flat field produced lane pixels")
	}
	// Add a bright stripe: only it should binarize.
	for y := 0; y < 10; y++ {
		score.Pix[y*score.W+4] = 0.9
	}
	mask, any := binarize(score)
	if !any {
		t.Fatal("bright stripe not detected")
	}
	for y := 0; y < 10; y++ {
		if !mask[y*10+4] {
			t.Fatalf("stripe pixel (4,%d) not set", y)
		}
		if mask[y*10+1] {
			t.Fatalf("background pixel (1,%d) set", y)
		}
	}
}

func TestDetectorScalesToSmallFrames(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	cam := camera.Scaled(128, 64)
	rend := camera.NewRenderer(tr, cam)
	vp := camera.PoseOnTrack(tr, 20, 0, 0)
	cfg, _ := isp.ByID("S0")
	img := cfg.Process(rend.RenderRAW(vp, 5))
	det := NewDetector(NewGeometry(cam))
	roi, _ := ROIByID(1)
	res := det.Detect(img, roi, LookAhead)
	if !res.OK {
		t.Fatal("detection failed at reduced resolution")
	}
	if math.Abs(res.YL) > 0.45 {
		t.Fatalf("centered vehicle measured yL = %v at low res", res.YL)
	}
}
