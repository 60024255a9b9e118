package camera

import (
	"fmt"
	"math"
	"testing"

	"hsas/internal/mat"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// lapPoses returns n poses spread evenly over the nine-sector lap, with a
// small weave in lateral offset and heading as a driven lap has.
func lapPoses(tr *world.Track, n int) []VehiclePose {
	ps := make([]VehiclePose, n)
	for i := range ps {
		s := tr.Length() * (float64(i) + 0.5) / float64(n)
		ph := 2 * math.Pi * float64(i) / 7
		ps[i] = PoseOnTrack(tr, s, 0.3*math.Sin(ph), 0.02*math.Cos(ph))
	}
	return ps
}

// BenchmarkRender times one frame of the loop's camera at 192×96 over
// poses spread across the nine-sector lap (every sector's scene and
// layout) on teams of one and two workers, in two forms: the scene
// shading alone (RenderSceneInto), and the whole RAW frame
// (RenderRAWInto: shading, noise draw and sensor model), its noise drawn
// inline. One op is one frame; the poses are taken in turn, each with
// its own seed.
func BenchmarkRender(b *testing.B) {
	tr := world.NineSectorTrack()
	cam := Scaled(192, 96)
	poses := lapPoses(tr, 36)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("scene/workers=%d", workers), func(b *testing.B) {
			rend := NewRenderer(tr, cam)
			rend.Team, rend.Workers = mat.NewTeam(workers), workers
			defer rend.Team.Close()
			out := raster.NewRGB(cam.Width, cam.Height)
			rend.RenderSceneInto(out, poses[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rend.RenderSceneInto(out, poses[i%len(poses)])
			}
		})
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("raw/workers=%d", workers), func(b *testing.B) {
			rend := NewRenderer(tr, cam)
			rend.Team, rend.Workers = mat.NewTeam(workers), workers
			defer rend.Team.Close()
			raw := raster.NewBayer(cam.Width, cam.Height)
			rend.RenderRAWInto(raw, poses[0], 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rend.RenderRAWInto(raw, poses[i%len(poses)], int64(i))
			}
		})
	}
}
