package isp

import (
	"testing"

	"hsas/internal/camera"
	"hsas/internal/mat"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// BenchmarkISPStages measures each per-pixel ISP kernel over the whole
// frame at the paper's 512×256, serial vs row-parallel, on pre-sized
// buffers. The in-place stages (colormap/gamut/tone) re-transform the
// same image each iteration; their cost, not their output, is what is
// measured here — byte identity across worker counts is pinned by the
// golden tests.
func BenchmarkISPStages(b *testing.B) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	track := world.SituationTrack(sit)
	cam := camera.Default()
	raw := camera.NewRenderer(track, cam).RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), 1)
	h := cam.Height
	demo := raster.NewRGB(cam.Width, h)
	den := raster.NewRGB(cam.Width, h)
	demosaic(raw, demo, raster.FullSpans(raw.W, raw.H), 0, nil)
	stages := []struct {
		name string
		fn   func(team *mat.Team)
	}{
		{"demosaic", func(tm *mat.Team) { demosaic(raw, demo, raster.FullSpans(raw.W, raw.H), 0, tm) }},
		{"denoise", func(tm *mat.Team) { denoise(demo, den, raster.FullSpans(demo.W, demo.H), tm) }},
		{"colormap", func(tm *mat.Team) { colorMap(den, raster.FullSpans(den.W, den.H), tm) }},
		{"gamutmap", func(tm *mat.Team) { gamutMap(den, raster.FullSpans(den.W, den.H), tm) }},
		{"tonemap", func(tm *mat.Team) { toneMap(den, raster.FullSpans(den.W, den.H), tm) }},
	}
	team := testTeams(b)
	for _, st := range stages {
		for _, par := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(st.name+"/"+par.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.fn(team(par.workers))
				}
			})
		}
	}
}
