package perception

import (
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// scoreBEVOracle is the BEV scoring scoreBEVInto replaced: three
// independent raster.Gray.Sample calls per BEV pixel. scoreBEVInto must
// match it bit for bit.
func scoreBEVOracle(d *Detector, out *raster.Gray, img *raster.RGB, roi ROI) {
	w, h := d.BevW, d.BevH
	rPlane := &raster.Gray{W: img.W, H: img.H, Pix: img.R}
	gPlane := &raster.Gray{W: img.W, H: img.H, Pix: img.G}
	bPlane := &raster.Gray{W: img.W, H: img.H, Pix: img.B}
	for row := 0; row < h; row++ {
		dist := d.rowToDist(roi, row)
		left, right := roi.LatAt(dist)
		for col := 0; col < w; col++ {
			lat := left + (right-left)*float64(col)/float64(w-1)
			u, v, ok := d.Geo.GroundToImage(dist, lat)
			if !ok || u < 0 || v < 0 || u > float64(img.W-1) || v > float64(img.H-1) {
				out.Pix[row*w+col] = 0
				continue
			}
			r := qz(rPlane.Sample(u, v), d.Quantize)
			g := qz(gPlane.Sample(u, v), d.Quantize)
			b := qz(bPlane.Sample(u, v), d.Quantize)
			luma := 0.2126*r + 0.7152*g + 0.0722*b
			chroma := r - b
			if chroma < 0 {
				chroma = 0
			}
			out.Pix[row*w+col] = luma + 0.9*chroma
		}
	}
}

// TestScoreBEVMatchesOracle checks the shared bilinear footprint against
// the three-Sample scoring for every ROI, at the default and the
// benchmark frame sizes, with and without 8-bit quantization, on
// rendered S0 frames of a straight, a right turn and a night scene.
func TestScoreBEVMatchesOracle(t *testing.T) {
	sits := []world.Situation{
		{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day},
		{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Dotted}, Scene: world.Day},
		{Layout: world.LeftTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Night},
	}
	cfg, _ := isp.ByID("S0")
	for _, cam := range []camera.Camera{camera.Default(), camera.Scaled(192, 96), camera.Scaled(96, 48)} {
		for si, sit := range sits {
			tr := world.SituationTrack(sit)
			rend := camera.NewRenderer(tr, cam)
			img := cfg.Process(rend.RenderRAW(camera.PoseOnTrack(tr, world.LeadInLength+4, 0.2, 0.01), int64(si)))
			for _, quantize := range []bool{true, false} {
				for _, roi := range ROIs {
					d := NewDetector(NewGeometry(cam))
					d.Quantize = quantize
					d.BevW = d.bevWidth(roi)
					got := raster.NewGray(d.BevW, d.BevH)
					for i := range got.Pix {
						got.Pix[i] = float32(math.NaN())
					}
					d.scoreBEVInto(got, img, roi)
					want := raster.NewGray(d.BevW, d.BevH)
					scoreBEVOracle(d, want, img, roi)
					mapped := 0
					for i := range want.Pix {
						if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
							t.Fatalf("%dx%d %v ROI %d quantize=%v: BEV pixel %d = %v, oracle %v",
								cam.Width, cam.Height, sit, roi.ID, quantize, i, got.Pix[i], want.Pix[i])
						}
						if want.Pix[i] != 0 {
							mapped++
						}
					}
					if mapped == 0 {
						t.Fatalf("%dx%d %v ROI %d: no BEV pixel scored", cam.Width, cam.Height, sit, roi.ID)
					}
				}
			}
		}
	}
}
