package perception

import (
	"fmt"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/mat"
	"hsas/internal/world"
)

var benchResult Result

// BenchmarkDetect times one steady-state Detect on a rendered S0 frame
// at the loop-cnn (96×48) and loop-robust (192×96) frame sizes, on the
// straight and the right-turn ROI. One warm-up call before the timer
// sizes the scratch and builds the sampling footprint, so allocs/op
// reports the per-frame steady state, which must be zero.
func BenchmarkDetect(b *testing.B) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	cfg, _ := isp.ByID("S0")
	for _, size := range [][2]int{{96, 48}, {192, 96}} {
		cam := camera.Scaled(size[0], size[1])
		img := cfg.Process(camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, world.LeadInLength+4, 0.1, 0), 1))
		for _, id := range []int{1, 3} {
			roi, _ := ROIByID(id)
			b.Run(fmt.Sprintf("%dx%d/roi%d", size[0], size[1], id), func(b *testing.B) {
				d := NewDetector(NewGeometry(cam))
				d.Detect(img, roi, LookAhead)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					benchResult = d.Detect(img, roi, LookAhead)
				}
			})
		}
	}
}

// TestDetectOnTeamAllocatesNothing: with the BEV rows split over a
// team, a steady-state Detect still allocates nothing.
func TestDetectOnTeamAllocatesNothing(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	tr := world.SituationTrack(sit)
	cam := camera.Scaled(192, 96)
	cfg, _ := isp.ByID("S0")
	img := cfg.Process(camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, 10, 0, 0), 1))
	roi, _ := ROIByID(1)
	d := NewDetector(NewGeometry(cam))
	d.Team = mat.NewTeam(2)
	defer d.Team.Close()
	d.Detect(img, roi, LookAhead)
	if n := testing.AllocsPerRun(50, func() { benchResult = d.Detect(img, roi, LookAhead) }); n != 0 {
		t.Fatalf("Detect on a team of two allocates %v times per call, want 0", n)
	}
}
