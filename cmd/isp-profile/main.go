// Command isp-profile regenerates Table II: the ISP knob configurations
// S0–S8 with the paper's profiled NVIDIA AGX Xavier runtimes and this
// machine's measured Go runtimes on frames of the paper's 512×256 size.
package main

import (
	"flag"
	"fmt"
	"time"

	"hsas/internal/approx"
	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/world"
)

func main() {
	width := flag.Int("width", 512, "frame width")
	height := flag.Int("height", 256, "frame height")
	reps := flag.Int("reps", 5, "repetitions per configuration")
	flag.Parse()

	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	track := world.SituationTrack(sit)
	cam := camera.Scaled(*width, *height)
	rend := camera.NewRenderer(track, cam)
	raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), 1)

	xavier := platform.Xavier()
	quals, err := approx.Sweep(raw)
	if err != nil {
		panic(err)
	}
	quality := map[string]approx.Quality{}
	for _, q := range quals {
		quality[q.ID] = q
	}
	fmt.Printf("Table II — ISP knobs on %dx%d frames (tau/h for the 0-classifier pipeline)\n", *width, *height)
	fmt.Printf("%-4s %-24s %12s %12s %8s %6s %10s %7s\n",
		"ID", "stages", "Xavier [ms]", "Go [ms]", "tau[ms]", "h[ms]", "PSNR[dB]", "SSIM")
	for _, cfg := range isp.Knobs {
		start := time.Now()
		for i := 0; i < *reps; i++ {
			cfg.Process(raw)
		}
		goMs := time.Since(start).Seconds() * 1e3 / float64(*reps)
		tm, err := xavier.TimingFor(cfg.ID, 0)
		if err != nil {
			panic(err)
		}
		q := quality[cfg.ID]
		fmt.Printf("%-4s %-24s %12.1f %12.1f %8.1f %6.0f %10.1f %7.3f\n",
			cfg.ID, cfg.String()[5:], isp.XavierRuntimeMs[cfg.ID], goMs, tm.TauMs, tm.HMs, q.PSNRdB, q.SSIM)
	}
	fmt.Printf("\nPR knobs (ROI 1-5), profiled %v ms on Xavier:\n", perception.XavierRuntimeMs)
	geo := perception.NewGeometry(cam)
	for _, roi := range perception.ROIs {
		pts := roi.Corners(geo)
		fmt.Printf("  %s -> corners(px) (%.0f,%.0f) (%.0f,%.0f) (%.0f,%.0f) (%.0f,%.0f)\n",
			roi.String(), pts[0][0], pts[0][1], pts[1][0], pts[1][1], pts[2][0], pts[2][1], pts[3][0], pts[3][1])
	}
	fmt.Printf("\nControl knobs: v in {30, 50} km/h; runtime %.4f ms on Xavier\n", 0.0025)
}
