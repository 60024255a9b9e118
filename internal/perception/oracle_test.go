package perception

import (
	"math"

	"hsas/internal/raster"
)

// This file keeps the per-sample detection code the fast paths in
// detector.go replaced. The fast paths must match it bit for bit.

// binarize is binarizeInto with freshly allocated scratch.
func binarize(score *raster.Gray) (mask []bool, any bool) {
	n := len(score.Pix)
	return binarizeInto(score, make([]float32, n), make([]bool, n))
}

// qzOracle is the 8-bit quantizer qz replaced: math.Round on the scaled
// sample.
func qzOracle(v float32, on bool) float32 {
	if !on {
		return v
	}
	v = raster.Clamp01(v)
	return float32(math.Round(float64(v)*255)) / 255
}

// scoreBEVOracle is the BEV scoring scoreBEVInto replaced: the ground
// point projected per pixel and three independent raster.Gray.Sample
// calls, quantized by qzOracle.
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
			r := qzOracle(rPlane.Sample(u, v), d.Quantize)
			g := qzOracle(gPlane.Sample(u, v), d.Quantize)
			b := qzOracle(bPlane.Sample(u, v), d.Quantize)
			luma := 0.2126*r + 0.7152*g + 0.0722*b
			chroma := r - b
			if chroma < 0 {
				chroma = 0
			}
			out.Pix[row*w+col] = luma + 0.9*chroma
		}
	}
}

// binarizeOracle is the four-pass binarization binarizeInto replaced:
// the 5-tap vertical smoothing with per-tap bounds checks, the lane
// filter, a separate statistics pass, and separate threshold and
// stripe-width passes.
func binarizeOracle(score *raster.Gray, smooth []float32, norm []float64, mask []bool) ([]bool, bool) {
	w, h := score.W, score.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s, wsum float32
			for dy := -2; dy <= 2; dy++ {
				yy := y + dy
				if yy < 0 || yy >= h {
					continue
				}
				wt := float32(3 - abs(dy))
				s += wt * score.Pix[yy*w+x]
				wsum += wt
			}
			smooth[y*w+x] = s / wsum
		}
	}
	for y := 0; y < h; y++ {
		row := smooth[y*w : (y+1)*w]
		nrow := norm[y*w : (y+1)*w]
		for i := range nrow {
			nrow[i] = 0
		}
		for x := stripeTau; x < w-stripeTau; x++ {
			l := float64(row[x-stripeTau])
			r := float64(row[x+stripeTau])
			resp := 2*float64(row[x]) - l - r - math.Abs(l-r)
			if resp > 0 {
				nrow[x] = resp
			}
		}
	}
	var sum, sum2 float64
	n := float64(len(norm))
	for _, v := range norm {
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	th := mean + threshKSigma*std
	if th < threshFloor {
		th = threshFloor
	}
	for i, v := range norm {
		mask[i] = v > th
	}
	any := false
	for y := 0; y < h; y++ {
		runStart := -1
		for x := 0; x <= w; x++ {
			on := x < w && mask[y*w+x]
			if on && runStart < 0 {
				runStart = x
			}
			if !on && runStart >= 0 {
				if x-runStart > maxStripeCols {
					for k := runStart; k < x; k++ {
						mask[y*w+k] = false
					}
				} else {
					any = true
				}
				runStart = -1
			}
		}
	}
	return mask, any
}

// detectOracle is Detect built from the oracles, on fresh buffers. It
// also returns the BEV score and the mask, for comparing the stages.
func detectOracle(d *Detector, img *raster.RGB, roi ROI, lookAhead float64) (Result, *raster.Gray, []bool, bool) {
	work := *d
	work.BevW = d.bevWidth(roi)
	work.scratch = &detScratch{}
	score := raster.NewGray(work.BevW, work.BevH)
	scoreBEVOracle(&work, score, img, roi)
	n := len(score.Pix)
	mask, any := binarizeOracle(score, make([]float32, n), make([]float64, n), make([]bool, n))
	if !any {
		return Result{}, score, mask, any
	}
	return work.slidingWindows(mask, roi, lookAhead), score, mask, any
}
