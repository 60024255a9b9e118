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
func qzOracle(v float32) float32 {
	v = raster.Clamp01(v)
	return float32(math.Round(float64(v)*255)) / 255
}

// scoreBEVOracle is the BEV scoring scoreBEVInto replaced: the ground
// point projected per pixel and scored by scoreSampleOracle.
func scoreBEVOracle(d *Detector, out *raster.Gray, img *raster.RGB, roi ROI) {
	w, h := d.BevW, d.BevH
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
			out.Pix[row*w+col] = scoreSampleOracle(img, u, v)
		}
	}
}

// scoreSampleOracle is one BEV pixel's score at the image point (u, v):
// each plane sampled by sampleOracle and quantized by qzOracle, then
// the luma and chroma sums taken left to right through addLeft.
func scoreSampleOracle(img *raster.RGB, u, v float64) float32 {
	r := qzOracle(sampleOracle(img.R, img.W, img.H, u, v))
	g := qzOracle(sampleOracle(img.G, img.W, img.H, u, v))
	b := qzOracle(sampleOracle(img.B, img.W, img.H, u, v))
	luma := addLeft(addLeft(0.2126*r, 0.7152*g), 0.0722*b)
	chroma := r - b
	if chroma < 0 {
		chroma = 0
	}
	return addLeft(luma, 0.9*chroma)
}

// sampleOracle is the bilinear sample of the w×h plane pix at (x, y),
// written out rather than calling raster.Bilerp: the position clamped
// to the frame, then the four corners blended with sums left to right
// through addLeft.
func sampleOracle(pix []float32, w, h int, x, y float64) float32 {
	x, y = clampOracle(x, w-1), clampOracle(y, h-1)
	x0, y0 := int(x), int(y)
	x1, y1 := min(x0+1, w-1), min(y0+1, h-1)
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00, v10 := pix[y0*w+x0], pix[y0*w+x1]
	v01, v11 := pix[y1*w+x0], pix[y1*w+x1]
	return addLeft(addLeft(addLeft(v00*(1-fx)*(1-fy), v10*fx*(1-fy)), v01*(1-fx)*fy), v11*fx*fy)
}

// clampOracle clamps v to [0, hi] as raster's clampF does, keeping -0.
func clampOracle(v float64, hi int) float64 {
	if v < 0 {
		return 0
	}
	if v > float64(hi) {
		return float64(hi)
	}
	return v
}

// addLeft is a + b as x86 adds with a first: a where a is NaN, else
// the sum (which is b where only b is NaN). Detection's sums all take a
// NaN left operand so, whatever operand order the compiler picks.
func addLeft(a, b float32) float32 {
	if a != a {
		return a
	}
	return a + b
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
