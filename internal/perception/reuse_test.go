package perception

import (
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestDetectScratchReuseDeterministic pins the buffer-reuse contract:
// repeated Detect calls on one Detector — across different frames, ROIs
// (hence BEV widths), detector settings and frame sizes, and back — must
// return exactly what a fresh Detector returns for the same frame, i.e.
// no state leaks between invocations through the recycled scratch or
// the cached sampling footprint.
func TestDetectScratchReuseDeterministic(t *testing.T) {
	type frame struct {
		sit    world.Situation
		s      float64
		roiID  int
		latOff float64
	}
	frames := []frame{
		{world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}, 20, 1, 0},
		{world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}, world.LeadInLength + 8, 3, 0.2},
		{world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Dotted}, Scene: world.Night}, 20, 2, -0.3},
	}
	cam := camera.Default()
	shared := NewDetector(NewGeometry(cam))
	cfg, _ := isp.ByID("S0")

	detect := func(d *Detector, f frame) Result {
		tr := world.SituationTrack(f.sit)
		rend := camera.NewRenderer(tr, cam)
		raw := rend.RenderRAW(camera.PoseOnTrack(tr, f.s, f.latOff, 0), 99)
		img := cfg.Process(raw)
		roi, _ := ROIByID(f.roiID)
		return d.Detect(img, roi, LookAhead)
	}

	// Interleave: A, B, C, then A and B again with warm scratch.
	order := []int{0, 1, 2, 0, 1}
	for pass, fi := range order {
		got := detect(shared, frames[fi])
		want := detect(NewDetector(NewGeometry(cam)), frames[fi])
		if got != want {
			t.Fatalf("pass %d frame %d: reused detector returned %+v, fresh returned %+v",
				pass, fi, got, want)
		}
	}

	// Then change, between calls on one Detector, each input the cached
	// sampling footprint depends on — the geometry, the BEV height, the
	// columns per meter (hence the BEV width), the frame width and
	// height and the ROI — and compare with a fresh Detector that has
	// the same settings. A key that missed one of them would serve a
	// stale footprint.
	tr := world.SituationTrack(frames[1].sit)
	render := func(cam camera.Camera) *raster.RGB {
		return cfg.Process(camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, world.LeadInLength+6, 0.1, 0), 5))
	}
	small, large := camera.Scaled(96, 48), camera.Scaled(192, 96)
	smallImg, largeImg := render(small), render(large)
	// Frames that differ from their neighbours in one dimension only.
	shortImg, narrowImg := render(camera.Scaled(192, 48)), render(camera.Scaled(96, 96))
	tilted := large
	tilted.PitchDeg += 2

	shared = NewDetector(NewGeometry(large))
	steps := []struct {
		name   string
		change func(d *Detector) (*raster.RGB, int)
	}{
		{"baseline", func(d *Detector) (*raster.RGB, int) { return largeImg, 3 }},
		{"geometry", func(d *Detector) (*raster.RGB, int) { d.Geo = NewGeometry(tilted); return largeImg, 3 }},
		{"bev height", func(d *Detector) (*raster.RGB, int) { d.BevH = 120; return largeImg, 3 }},
		{"cols per meter", func(d *Detector) (*raster.RGB, int) { d.ColsPerMeter = 24; return largeImg, 3 }},
		{"frame height", func(d *Detector) (*raster.RGB, int) { return shortImg, 3 }},
		{"frame width", func(d *Detector) (*raster.RGB, int) { return smallImg, 3 }},
		{"frame height again", func(d *Detector) (*raster.RGB, int) { return narrowImg, 3 }},
		{"frame width again", func(d *Detector) (*raster.RGB, int) { return largeImg, 3 }},
		{"frame size", func(d *Detector) (*raster.RGB, int) { return smallImg, 3 }},
		{"roi", func(d *Detector) (*raster.RGB, int) { return smallImg, 2 }},
		{"geometry back", func(d *Detector) (*raster.RGB, int) { d.Geo = NewGeometry(small); return smallImg, 2 }},
		{"all back", func(d *Detector) (*raster.RGB, int) {
			d.Geo, d.BevH, d.ColsPerMeter = NewGeometry(large), 160, 13
			return largeImg, 3
		}},
	}
	for _, st := range steps {
		img, id := st.change(shared)
		roi, _ := ROIByID(id)
		fresh := *shared
		fresh.scratch = nil
		got := shared.Detect(img, roi, LookAhead)
		want := fresh.Detect(img, roi, LookAhead)
		if !sameResult(got, want) {
			t.Fatalf("after changing %s: reused detector returned %+v, fresh returned %+v", st.name, got, want)
		}
		if !want.OK && st.name == "baseline" {
			t.Fatalf("baseline frame not detected: %+v", want)
		}
	}
}

// TestDetectBuildsFootprintOnce poisons the cached sampling footprint
// between calls: a call with an unchanged key must keep it (no
// per-frame rebuild), a changed key must rebuild it.
func TestDetectBuildsFootprintOnce(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	cam := camera.Scaled(96, 48)
	cfg, _ := isp.ByID("S0")
	img := cfg.Process(camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, 20, 0, 0), 1))
	roi1, _ := ROIByID(1)
	roi2, _ := ROIByID(2)
	d := NewDetector(NewGeometry(cam))
	d.Detect(img, roi1, LookAhead)
	const poison = 42
	fp := &d.scratch.fp
	fp.samples[0].fx = poison
	d.Detect(img, roi1, LookAhead)
	if fp.samples[0].fx != poison {
		t.Fatal("Detect rebuilt the footprint although its key did not change")
	}
	d.Detect(img, roi2, LookAhead)
	if fp.samples[0].fx == poison {
		t.Fatal("Detect kept the footprint of another ROI")
	}
}
