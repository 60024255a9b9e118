package camera

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/fault"
	"hsas/internal/raster"
	"hsas/internal/world"
)

func dayTrack() *world.Track {
	return world.SituationTrack(world.Situation{
		Layout: world.Straight,
		Lane:   world.LaneMarking{Color: world.White, Form: world.Continuous},
		Scene:  world.Day,
	})
}

func testCam() Camera { return Scaled(128, 64) }

func TestRendererHorizonSplitsSkyAndGround(t *testing.T) {
	r := NewRenderer(dayTrack(), testCam())
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(r.Track, 10, 0, 0))
	// Top row must be sky (bright blue-ish in day), bottom row ground.
	sky := skyColor(world.Day)
	tr, tg, tb := img.R[64], img.G[64], img.B[64]
	if tr != sky[0] || tg != sky[1] || tb != sky[2] {
		t.Fatalf("top pixel = %v %v %v, want sky %v", tr, tg, tb, sky)
	}
	i := 63*img.W + 64
	br, bg, bb := img.R[i], img.G[i], img.B[i]
	if br == sky[0] && bg == sky[1] && bb == sky[2] {
		t.Fatal("bottom pixel is sky; ground not rendered")
	}
}

func TestLaneMarkingsVisibleInDay(t *testing.T) {
	r := NewRenderer(dayTrack(), testCam())
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(r.Track, 10, 0, 0))
	// Scan the lower third for pixels much brighter than the median: the
	// white continuous left marking must produce them.
	luma := img.Luma()
	var bright int
	for y := luma.H * 2 / 3; y < luma.H; y++ {
		for x := 0; x < luma.W; x++ {
			if luma.At(x, y) > 0.6 {
				bright++
			}
		}
	}
	if bright < 20 {
		t.Fatalf("only %d bright marking pixels in day scene", bright)
	}
}

func TestNightIsDarkerThanDay(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}}
	daySit, nightSit, darkSit := sit, sit, sit
	daySit.Scene = world.Day
	nightSit.Scene = world.Night
	darkSit.Scene = world.Dark

	mean := func(s world.Situation) float64 {
		tr := world.SituationTrack(s)
		r := NewRenderer(tr, testCam())
		img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, 10, 0, 0))
		luma := img.Luma()
		var sum float64
		for _, v := range luma.Pix {
			sum += float64(v)
		}
		return sum / float64(len(luma.Pix))
	}
	d, n, k := mean(daySit), mean(nightSit), mean(darkSit)
	if !(d > 2*n && n > k) {
		t.Fatalf("scene brightness ordering broken: day %v night %v dark %v", d, n, k)
	}
}

func TestHeadlightsIlluminateAhead(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Dark}
	tr := world.SituationTrack(sit)
	r := NewRenderer(tr, testCam())
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, 10, 0, 0))
	luma := img.Luma()
	// Bottom-center (close, inside the cone) must beat top-of-ground rows.
	nearRow, farRow := luma.H-3, luma.H/2+4
	var near, far float64
	for x := luma.W / 3; x < luma.W*2/3; x++ {
		near += float64(luma.At(x, nearRow))
		far += float64(luma.At(x, farRow))
	}
	if near <= far*1.5 {
		t.Fatalf("headlight cone missing: near %v far %v", near, far)
	}
}

func TestYellowMarkingHasColor(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	r := NewRenderer(tr, testCam())
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, 10, 0, 0))
	// Find the most yellow pixel in the lower half: R-B gap must be large.
	var bestGap float32
	for y := img.H / 2; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			r8, b8 := img.R[y*img.W+x], img.B[y*img.W+x]
			if gap := r8 - b8; gap > bestGap {
				bestGap = gap
			}
		}
	}
	if bestGap < 0.3 {
		t.Fatalf("yellow marking not distinctly colored: max R-B gap %v", bestGap)
	}
}

func TestMosaicDeterministicPerSeed(t *testing.T) {
	r := NewRenderer(dayTrack(), testCam())
	vp := PoseOnTrack(r.Track, 10, 0, 0)
	a := r.RenderRAW(vp, 7)
	b := r.RenderRAW(vp, 7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("same seed produced different RAW at %d", i)
		}
	}
	c := r.RenderRAW(vp, 8)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestMosaicQuantizedAndBounded(t *testing.T) {
	r := NewRenderer(dayTrack(), testCam())
	raw := r.RenderRAW(PoseOnTrack(r.Track, 10, 0, 0), 3)
	for i, v := range raw.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("RAW sample %d out of range: %v", i, v)
		}
		q := float64(v) * QuantLevel
		if math.Abs(q-math.Round(q)) > 1e-3 {
			t.Fatalf("RAW sample %d not quantized: %v", i, v)
		}
	}
}

func TestMosaicCrosstalkOnWhite(t *testing.T) {
	// A pure white scene should produce roughly equal RAW responses
	// (matrix rows sum to 1), while a pure red scene should leak into G/B.
	scene := raster.NewRGB(4, 4)
	for i := range scene.R {
		scene.R[i] = 1
	}
	r := NewRenderer(dayTrack(), Scaled(4, 4))
	r.noise = make([]float64, 2*len(scene.R))
	r.rng = rand.New(rand.NewSource(1))
	r.drawn.Add(1)
	r.drawNoise()
	raw := raster.NewBayer(scene.W, scene.H)
	r.frame.spans = raster.FullSpans(scene.W, scene.H)
	r.sensorRows(raw, scene, []int32{0, 1, 2, 3})
	// Average G cells: should be near SensorMatrix[1][0] = 0.18, not 0.
	var g float64
	var n int
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if raster.ColorAt(x, y) == raster.CFAGreen {
				g += float64(raw.At(x, y))
				n++
			}
		}
	}
	g /= float64(n)
	if g < 0.08 || g > 0.3 {
		t.Fatalf("green crosstalk from red scene = %v, want ~0.18", g)
	}
}

func TestPoseOnTrackHeadingOffset(t *testing.T) {
	tr := dayTrack()
	vp := PoseOnTrack(tr, 20, 1.0, 0.1)
	if math.Abs(vp.Psi-0.1) > 1e-9 {
		t.Fatalf("psi = %v, want 0.1", vp.Psi)
	}
	if math.Abs(vp.Y-1.0) > 1e-9 {
		t.Fatalf("lateral offset not applied: y = %v", vp.Y)
	}
	if math.Abs(vp.S-20) > 1e-9 {
		t.Fatalf("s hint = %v", vp.S)
	}
}

func TestVignettingDarkensCorners(t *testing.T) {
	r := NewRenderer(dayTrack(), testCam())
	if r.vig[0] >= r.vig[len(r.vig)/2+r.Cam.Width/2] {
		t.Fatal("corner vignetting not darker than center")
	}
}

func TestTextureNoiseDeterministicBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		x, y := float64(i)*0.37, float64(i)*0.73
		v := textureNoise(x, y)
		if v < -1 || v > 1 {
			t.Fatalf("texture noise out of range: %v", v)
		}
		if v != textureNoise(x, y) {
			t.Fatal("texture noise not deterministic")
		}
	}
}

func TestRenderOnCurve(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	r := NewRenderer(tr, testCam())
	// Render from inside the curve segment.
	s := world.LeadInLength + 10
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, s, 0, 0))
	luma := img.Luma()
	// Marking pixels must still exist (the curve stays in view).
	var bright int
	for y := luma.H / 2; y < luma.H; y++ {
		for x := 0; x < luma.W; x++ {
			if luma.At(x, y) > 0.6 {
				bright++
			}
		}
	}
	if bright < 10 {
		t.Fatalf("no markings rendered on curve (%d bright px)", bright)
	}
}

// TestOccluderMasksMarkings: a full occluder erases the bright marking
// pixels (they shade as asphalt), a nil or never-firing occluder
// changes nothing, and the occluded render stays byte-identical across
// worker counts (the Occlude purity contract).
func TestOccluderMasksMarkings(t *testing.T) {
	brightCount := func(img *raster.RGB) int {
		luma := img.Luma()
		n := 0
		for y := luma.H * 2 / 3; y < luma.H; y++ {
			for x := 0; x < luma.W; x++ {
				if luma.At(x, y) > 0.6 {
					n++
				}
			}
		}
		return n
	}
	pose := func(r *Renderer) VehiclePose { return PoseOnTrack(r.Track, 10, 0, 0) }

	base := NewRenderer(dayTrack(), testCam())
	plain := base.RenderSceneInto(raster.NewRGB(base.Cam.Width, base.Cam.Height), pose(base))
	if brightCount(plain) < 20 {
		t.Fatal("baseline scene has no marking pixels to occlude")
	}

	occluded := NewRenderer(dayTrack(), testCam())
	occluded.Occlude = func(s, lat float64) bool { return true }
	gone := occluded.RenderSceneInto(raster.NewRGB(occluded.Cam.Width, occluded.Cam.Height), pose(occluded))
	if n := brightCount(gone); n != 0 {
		t.Fatalf("full occluder left %d bright marking pixels", n)
	}

	never := NewRenderer(dayTrack(), testCam())
	never.Occlude = func(s, lat float64) bool { return false }
	same := never.RenderSceneInto(raster.NewRGB(never.Cam.Width, never.Cam.Height), pose(never))
	for i := range plain.R {
		if plain.R[i] != same.R[i] || plain.G[i] != same.G[i] || plain.B[i] != same.B[i] {
			t.Fatalf("never-firing occluder changed pixel %d", i)
		}
	}

	// Patchy pure occluder: serial and 4-worker renders agree exactly.
	patchy := func(s, lat float64) bool {
		return fault.MarkingOccluded(s, lat, 0.5, fault.OcclusionSeed(9))
	}
	serial := NewRenderer(dayTrack(), testCam())
	serial.Workers, serial.Occlude = 1, patchy
	par := NewRenderer(dayTrack(), testCam())
	par.Workers, par.Occlude = 4, patchy
	a := serial.RenderSceneInto(raster.NewRGB(serial.Cam.Width, serial.Cam.Height), pose(serial))
	b := par.RenderSceneInto(raster.NewRGB(par.Cam.Width, par.Cam.Height), pose(par))
	for i := range a.R {
		if a.R[i] != b.R[i] || a.G[i] != b.G[i] || a.B[i] != b.B[i] {
			t.Fatalf("occluded render differs between 1 and 4 workers at pixel %d", i)
		}
	}
	if brightCount(a) >= brightCount(plain) {
		t.Fatal("patchy occluder did not thin the markings")
	}
}
