package camera

import (
	"math"
	"testing"

	"hsas/internal/raster"
	"hsas/internal/world"
)

func sceneTrack(sc world.Scene) *world.Track {
	return world.SituationTrack(world.Situation{
		Layout: world.Straight,
		Lane:   world.LaneMarking{Color: world.White, Form: world.Continuous},
		Scene:  sc,
	})
}

func meanLuma(t *testing.T, sc world.Scene) float64 {
	t.Helper()
	tr := sceneTrack(sc)
	r := NewRenderer(tr, Scaled(128, 64))
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, 15, 0, 0))
	luma := img.Luma()
	var sum float64
	for _, v := range luma.Pix {
		sum += float64(v)
	}
	return sum / float64(len(luma.Pix))
}

// TestAllFiveScenesOrdered: brightness must order day > dawn/dusk > night
// > dark across the full Table I scene taxonomy.
func TestAllFiveScenesOrdered(t *testing.T) {
	day := meanLuma(t, world.Day)
	dawn := meanLuma(t, world.Dawn)
	dusk := meanLuma(t, world.Dusk)
	night := meanLuma(t, world.Night)
	dark := meanLuma(t, world.Dark)
	if !(day > dawn && day > dusk) {
		t.Fatalf("day (%v) not brighter than dawn (%v) / dusk (%v)", day, dawn, dusk)
	}
	if !(dawn > night && dusk > night) {
		t.Fatalf("twilight not brighter than night: dawn %v dusk %v night %v", dawn, dusk, night)
	}
	if !(night > dark) {
		t.Fatalf("night (%v) not brighter than dark (%v)", night, dark)
	}
}

// TestDawnIsWarm: the dawn tint must skew red over blue — the property
// that makes white markings ambiguous with yellow ones and motivates the
// scene classifier's role in ISP knob selection.
func TestDawnIsWarm(t *testing.T) {
	tr := sceneTrack(world.Dawn)
	r := NewRenderer(tr, Scaled(128, 64))
	img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, 15, 0, 0))
	var sumR, sumB float64
	for i := range img.R {
		sumR += float64(img.R[i])
		sumB += float64(img.B[i])
	}
	if sumR <= sumB {
		t.Fatalf("dawn not warm: R %v vs B %v", sumR, sumB)
	}
}

// TestStreetLightsOnlyAtNight: the periodic street-light pools exist at
// night but not in the dark scene (the sector 8->9 transition of Fig. 7).
func TestStreetLightsOnlyAtNight(t *testing.T) {
	brightnessAt := func(sc world.Scene, s float64) float64 {
		tr := sceneTrack(sc)
		r := NewRenderer(tr, Scaled(128, 64))
		img := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), PoseOnTrack(tr, s, 0, 0))
		luma := img.Luma()
		// Mid-distance band, beyond the headlight hot spot's core.
		var sum float64
		n := 0
		for y := luma.H / 2; y < luma.H*3/4; y++ {
			for x := 0; x < luma.W; x++ {
				sum += float64(luma.At(x, y))
				n++
			}
		}
		return sum / float64(n)
	}
	// Average over positions to cover lamp spacing phases.
	var night, dark float64
	for s := 5.0; s < 40; s += 7 {
		night += brightnessAt(world.Night, s)
		dark += brightnessAt(world.Dark, s)
	}
	if night < dark*1.5 {
		t.Fatalf("street lights not evident: night %v vs dark %v", night, dark)
	}
}

// TestNoiseScalesWithSignal: the shot-noise model must make bright
// regions noisier in absolute terms but cleaner in SNR than dim ones.
func TestNoiseScalesWithSignal(t *testing.T) {
	tr := sceneTrack(world.Day)
	r := NewRenderer(tr, Scaled(64, 32))
	vp := PoseOnTrack(tr, 15, 0, 0)
	scene := r.RenderSceneInto(raster.NewRGB(r.Cam.Width, r.Cam.Height), vp)

	// One bright pixel (a marking in the lower rows) and one dim pixel
	// (asphalt at the lane center near the bottom).
	luma := scene.Luma()
	brightIdx := -1
	for y := luma.H * 3 / 4; y < luma.H && brightIdx < 0; y++ {
		for x := 0; x < luma.W; x++ {
			if luma.At(x, y) > 0.6 {
				brightIdx = y*luma.W + x
				break
			}
		}
	}
	if brightIdx < 0 {
		t.Fatal("no bright marking pixel found")
	}
	dimIdx := (luma.H-2)*luma.W + luma.W/2 // asphalt at the lane center

	// Estimate per-pixel noise from repeated mosaics.
	const reps = 40
	var sum, sum2 [2]float64
	for rep := 0; rep < reps; rep++ {
		raw := r.RenderRAW(vp, int64(rep))
		for j, idx := range [2]int{brightIdx, dimIdx} {
			v := float64(raw.Pix[idx])
			sum[j] += v
			sum2[j] += v * v
		}
	}
	varOf := func(j int) float64 {
		m := sum[j] / reps
		return sum2[j]/reps - m*m
	}
	if !(varOf(0) > varOf(1)) {
		t.Fatalf("shot noise not signal-dependent: bright var %v dim var %v", varOf(0), varOf(1))
	}
	// SNR still favors the bright pixel.
	snr := func(j int) float64 { return (sum[j] / reps) / math.Sqrt(varOf(j)) }
	if snr(0) <= snr(1) {
		t.Fatalf("bright pixel SNR (%v) not above dim pixel SNR (%v)", snr(0), snr(1))
	}
}
