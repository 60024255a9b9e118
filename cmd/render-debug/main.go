// Command render-debug dumps synthetic camera frames for visual
// inspection of the renderer across scenes and layouts. With -detect it
// also runs the ISP + perception stage on each frame and annotates the
// output with the measured lane center at the look-ahead distance (green
// cross) and the ROI corner points (red), which makes perception
// regressions visible at a glance.
package main

import (
	"flag"
	"fmt"
	"log"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/perception"
	"hsas/internal/raster"
	"hsas/internal/world"
)

func main() {
	out := flag.String("out", "/tmp", "output directory for PPM frames")
	detect := flag.Bool("detect", false, "run ISP+perception and annotate the frames")
	ispID := flag.String("isp", "S0", "ISP configuration for -detect")
	flag.Parse()

	cam := camera.Default()
	geo := perception.NewGeometry(cam)
	det := perception.NewDetector(geo)
	cfg, ok := isp.ByID(*ispID)
	if !ok {
		log.Fatalf("unknown ISP config %q", *ispID)
	}

	for _, sc := range []world.Scene{world.Day, world.Dawn, world.Dusk, world.Night, world.Dark} {
		for _, layout := range []world.RoadLayout{world.Straight, world.RightTurn, world.LeftTurn} {
			sit := world.Situation{Layout: layout, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: sc}
			tr := world.SituationTrack(sit)
			r := camera.NewRenderer(tr, cam)
			s := 10.0
			if layout != world.Straight {
				s = world.LeadInLength + 5
			}
			vp := camera.PoseOnTrack(tr, s, 0, 0)

			var img *raster.RGB
			suffix := ""
			if *detect {
				img = cfg.Process(r.RenderRAW(vp, 1))
				roi, _ := perception.ROIByID(knobs.RoadROI(layout, false))
				res := det.Detect(img, roi, perception.LookAhead)
				annotate(img, geo, roi, res)
				suffix = "_detect"
			} else {
				img = r.RenderSceneInto(raster.NewRGB(cam.Width, cam.Height), vp).Clamp()
			}

			path := fmt.Sprintf("%s/scene_%s_%s%s.ppm", *out, sc, layout, suffix)
			if err := img.SavePPM(path); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}

// annotate marks the ROI corners (red crosses) and the measured lane
// center at the look-ahead (green cross) on the frame.
func annotate(img *raster.RGB, geo perception.Geometry, roi perception.ROI, res perception.Result) {
	for _, pt := range roi.Corners(geo) {
		cross(img, int(pt[0]), int(pt[1]), 1, 0, 0)
	}
	if !res.OK {
		// Failure marker: red bar down the image center.
		for y := 0; y < img.H; y += 2 {
			img.Set(img.W/2, y, 1, 0, 0)
		}
		return
	}
	// Lane center at the look-ahead in image coordinates: res.YL is the
	// center's lateral position in the vehicle frame (positive left).
	u, v, ok := geo.GroundToImage(perception.LookAhead, res.YL)
	if !ok {
		return
	}
	cross(img, int(u), int(v), 0, 1, 0)
}

// cross draws a small colored cross (out-of-bounds writes are dropped by
// the raster package).
func cross(img *raster.RGB, x, y int, r, g, b float32) {
	for d := -8; d <= 8; d++ {
		img.Set(x+d, y, r, g, b)
		img.Set(x, y+d, r, g, b)
	}
}
