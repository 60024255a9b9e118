package perception

import (
	"math"

	"hsas/internal/mat"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// Detector is the sliding-window lane detector. It is resolution
// independent: the bird's-eye view (BEV) is sampled directly from the
// ground-plane mapping, so the same ROIs work for full-size and test-size
// frames.
//
// Detect reuses per-detector scratch (BEV raster, filter buffers,
// candidate-pixel slices, fit workspace) across invocations, so a
// Detector must not run Detect concurrently with itself; parallel
// closed-loop runs each construct their own Detector.
type Detector struct {
	Geo Geometry

	// BEV raster dimensions. Rows run far (0) to near (BevH-1). BevW is
	// the width for a nominal ROI; wide turn ROIs get proportionally more
	// columns (constant ColsPerMeter) so the 0.15 m painted stripe always
	// spans ~2 columns regardless of the ROI's lateral extent.
	BevW, BevH   int
	ColsPerMeter float64
	// Sliding-window parameters.
	NumWindows int
	MarginCols int
	MinPixWin  int
	MinPixLane int
	// Quantize emulates the 8-bit image buffer the PR stage consumes on
	// the target platform; disable only for diagnostics.
	Quantize bool

	// scratch holds the reusable per-invocation buffers. It is a pointer
	// so the by-value working copy Detect makes shares (and persists) the
	// grown capacity. Lazily initialized, so literal-constructed
	// Detectors work too.
	scratch *detScratch
}

// detScratch is the per-detector buffer arena. Every buffer is either
// fully overwritten per invocation (bev, smooth, norm, mask, hist) or
// reset to length zero and appended to (the candidate-pixel and fit
// slices), so no state leaks between frames.
type detScratch struct {
	bev    raster.Gray
	smooth []float32
	norm   []float64
	mask   []bool
	hist   []int

	leftXs, leftYs, rightXs, rightYs []float64
	leftDs, leftCs, rightDs, rightCs []float64
	ds, cs                           []float64
	fit                              mat.Fitter
}

// ensure sizes the dense BEV buffers for a w×h raster.
func (sc *detScratch) ensure(w, h int) {
	n := w * h
	sc.bev.W, sc.bev.H = w, h
	if cap(sc.bev.Pix) < n {
		sc.bev.Pix = make([]float32, n)
		sc.smooth = make([]float32, n)
		sc.norm = make([]float64, n)
		sc.mask = make([]bool, n)
	}
	sc.bev.Pix = sc.bev.Pix[:n]
	sc.smooth = sc.smooth[:n]
	sc.norm = sc.norm[:n]
	sc.mask = sc.mask[:n]
	if cap(sc.hist) < w {
		sc.hist = make([]int, w)
	}
	sc.hist = sc.hist[:w]
}

// NewDetector returns a detector with the defaults used by all paper
// experiments.
func NewDetector(geo Geometry) *Detector {
	return &Detector{
		Geo:          geo,
		BevW:         96,
		BevH:         160,
		ColsPerMeter: 13,
		NumWindows:   9,
		MarginCols:   10,
		MinPixWin:    8,
		MinPixLane:   30,
		Quantize:     true,
	}
}

// Result is the outcome of one perception invocation.
type Result struct {
	// YL is the lateral position of the lane center at the look-ahead
	// distance in the vehicle frame (positive left). It is the measured
	// lateral deviation fed to the controller; zero means centered.
	YL float64
	// OK is false when no lane marking could be tracked in the ROI.
	OK bool
	// LeftFound / RightFound report which markings were tracked.
	LeftFound, RightFound bool
	// CandidatePixels counts binarized lane pixels inside the windows.
	CandidatePixels int
	// Curvature is the estimated road curvature (1/m, positive left)
	// from the second-order lane fit, used for steering feedforward.
	Curvature float64
}

// Detect runs the full PR stage on an ISP-processed RGB frame.
func (d *Detector) Detect(img *raster.RGB, roi ROI, lookAhead float64) Result {
	if d.scratch == nil {
		d.scratch = &detScratch{}
	}
	work := *d
	work.BevW = d.bevWidth(roi)
	sc := work.scratch
	sc.ensure(work.BevW, work.BevH)
	score := work.scoreBEVInto(&sc.bev, img, roi)
	binary, any := binarizeInto(score, sc.smooth, sc.norm, sc.mask)
	if !any {
		return Result{}
	}
	return work.slidingWindows(binary, roi, lookAhead)
}

// bevWidth sizes the BEV raster for the ROI's mean lateral extent.
func (d *Detector) bevWidth(roi ROI) int {
	if d.ColsPerMeter <= 0 {
		return d.BevW
	}
	nl, nr := roi.LatAt(roi.NearDist)
	fl, fr := roi.LatAt(roi.FarDist)
	mean := ((nl - nr) + (fl - fr)) / 2
	w := int(mean * d.ColsPerMeter)
	if w < d.BevW {
		w = d.BevW
	}
	if w > 220 {
		w = 220
	}
	return w
}

// scoreBEV samples the bird's-eye view of the ROI and computes the
// lane-pixel score: luminance for white paint plus an R-B chroma term for
// yellow paint.
func (d *Detector) scoreBEV(img *raster.RGB, roi ROI) *raster.Gray {
	return d.scoreBEVInto(raster.NewGray(d.BevW, d.BevH), img, roi)
}

// scoreBEVInto is scoreBEV writing into a caller-held raster sized
// BevW×BevH. Every pixel is written (unmapped samples score 0), so out
// may be a recycled buffer with arbitrary contents.
func (d *Detector) scoreBEVInto(out *raster.Gray, img *raster.RGB, roi ROI) *raster.Gray {
	w, h := d.BevW, d.BevH
	iw, ih := img.W, img.H
	for row := 0; row < h; row++ {
		dist := d.rowToDist(roi, row)
		left, right := roi.LatAt(dist)
		for col := 0; col < w; col++ {
			lat := left + (right-left)*float64(col)/float64(w-1)
			u, v, ok := d.Geo.GroundToImage(dist, lat)
			// Rejecting NaN here writes the 0 that sampling NaN
			// coordinates would score.
			if !ok || !(u >= 0 && v >= 0 && u <= float64(iw-1) && v <= float64(ih-1)) {
				out.Pix[row*w+col] = 0
				continue
			}
			// The bilinear footprint of raster.Gray.Sample at (u, v),
			// which needs no clamping here, shared by the three planes.
			x0, y0 := int(u), int(v)
			x1, y1 := min(x0+1, iw-1), min(y0+1, ih-1)
			fx := float32(u - float64(x0))
			fy := float32(v - float64(y0))
			i00, i10, i01, i11 := y0*iw+x0, y0*iw+x1, y1*iw+x0, y1*iw+x1
			r := qz(bilinear(img.R, i00, i10, i01, i11, fx, fy), d.Quantize)
			g := qz(bilinear(img.G, i00, i10, i01, i11, fx, fy), d.Quantize)
			b := qz(bilinear(img.B, i00, i10, i01, i11, fx, fy), d.Quantize)
			luma := 0.2126*r + 0.7152*g + 0.0722*b
			chroma := r - b
			if chroma < 0 {
				chroma = 0
			}
			out.Pix[row*w+col] = luma + 0.9*chroma
		}
	}
	return out
}

// bilinear is raster.Gray.Sample's interpolation over the samples at
// the four indices, evaluated in the same order so the bits match.
func bilinear(pix []float32, i00, i10, i01, i11 int, fx, fy float32) float32 {
	return pix[i00]*(1-fx)*(1-fy) + pix[i10]*fx*(1-fy) + pix[i01]*(1-fx)*fy + pix[i11]*fx*fy
}

// qz quantizes a sample to 8 bits, emulating the PR input buffer.
func qz(v float32, on bool) float32 {
	if !on {
		return v
	}
	v = raster.Clamp01(v)
	return float32(math.Round(float64(v)*255)) / 255
}

// rowToDist maps a BEV row to a forward distance (row 0 = far edge).
func (d *Detector) rowToDist(roi ROI, row int) float64 {
	t := float64(row) / float64(d.BevH-1)
	return roi.FarDist - t*(roi.FarDist-roi.NearDist)
}

// distToRow inverts rowToDist, clamped to the raster.
func (d *Detector) distToRow(roi ROI, dist float64) int {
	t := (roi.FarDist - dist) / (roi.FarDist - roi.NearDist)
	row := int(math.Round(t * float64(d.BevH-1)))
	if row < 0 {
		row = 0
	}
	if row >= d.BevH {
		row = d.BevH - 1
	}
	return row
}

// colToLat maps a BEV column to a lateral offset at the given row.
func (d *Detector) colToLat(roi ROI, row, col float64) float64 {
	dist := d.rowToDist(roi, int(math.Round(row)))
	left, right := roi.LatAt(dist)
	return left + (right-left)*col/float64(d.BevW-1)
}

// latToCol maps a lateral offset at the given row to a BEV column.
func (d *Detector) latToCol(roi ROI, row int, lat float64) float64 {
	dist := d.rowToDist(roi, row)
	left, right := roi.LatAt(dist)
	return (lat - left) / (right - left) * float64(d.BevW-1)
}

// Dynamic threshold parameters (paper: "binarization using dynamic
// thresholding"): paint must beat the local statistics by kSigma standard
// deviations and clear an absolute floor that rejects pure sensor noise.
const (
	threshKSigma = 2.2
	threshFloor  = 0.035
)

// stripeTau is the lane-marking filter's lateral sampling distance in BEV
// columns — slightly wider than the painted stripe (2–3 columns).
const stripeTau = 3

// binarize converts a score map into a boolean lane-pixel mask. The score
// is first top-hat normalized (each pixel minus the local horizontal
// mean), removing smooth illumination gradients — the headlight hot spot
// at night, street-light pools — while preserving the narrow bright
// stripes of painted markings. The result is thresholded against the
// normalized map's own statistics (the paper's "dynamic thresholding").
// any is false when the mask is empty.
func binarize(score *raster.Gray) (mask []bool, any bool) {
	n := len(score.Pix)
	return binarizeInto(score, make([]float32, n), make([]float64, n), make([]bool, n))
}

// binarizeInto is binarize with caller-held scratch. smooth, norm and
// mask must each have len(score.Pix) elements; all three are fully
// overwritten, so recycled buffers with stale contents are fine. The
// returned mask aliases the mask argument.
func binarizeInto(score *raster.Gray, smooth []float32, norm []float64, mask []bool) ([]bool, bool) {
	w, h := score.W, score.H

	// Vertical smoothing first: markings are vertically extended stripes
	// in the bird's-eye view, so averaging a few rows is a matched filter
	// that suppresses single-pixel texture speckle without blurring the
	// stripe laterally.
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

	// Lane-marking filter (Nieto et al.): a pixel responds only when it is
	// brighter than BOTH lateral neighbors at stripe distance, so painted
	// stripes fire while one-sided brightness steps — shoulder edges, the
	// rim of the headlight pool — cancel to ~zero:
	//   r(x) = 2 v(x) - v(x-tau) - v(x+tau) - |v(x-tau) - v(x+tau)|
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

	// Stripe-width filter: painted markings are 2–3 BEV columns wide,
	// while brightness steps (shoulder edges, the rim of the headlight
	// pool) survive the top-hat as bands about as wide as its window.
	// Clearing over-wide horizontal runs rejects those edges.
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

// maxStripeCols is the widest horizontal run accepted as painted marking.
const maxStripeCols = 5

// slidingWindows performs the bottom-to-top candidate search and curve
// fit of Fig. 3b on the binarized BEV.
func (d *Detector) slidingWindows(mask []bool, roi ROI, lookAhead float64) Result {
	w, h := d.BevW, d.BevH
	sc := d.scratch
	if sc == nil {
		sc = &detScratch{}
	}

	// Histogram of the bottom half, split at the vehicle-axis column;
	// dotted markings can have their near dash in a gap, so each side
	// falls back to a full-height histogram when its peak is missing.
	axisCol := d.latToCol(roi, h-1, 0)
	peaks := func(top int) (lb, lp, rb, rp int) {
		if cap(sc.hist) < w {
			sc.hist = make([]int, w)
		}
		hist := sc.hist[:w]
		for i := range hist {
			hist[i] = 0
		}
		for y := top; y < h; y++ {
			for x := 0; x < w; x++ {
				if mask[y*w+x] {
					hist[x]++
				}
			}
		}
		lb, rb = -1, -1
		for x, c := range hist {
			if float64(x) < axisCol {
				if c > lp {
					lp, lb = c, x
				}
			} else if c > rp {
				rp, rb = c, x
			}
		}
		return lb, lp, rb, rp
	}
	leftBase, leftPeak, rightBase, rightPeak := peaks(h / 2)
	if leftBase < 0 || rightBase < 0 || leftPeak < d.MinPixWin || rightPeak < d.MinPixWin {
		flb, flp, frb, frp := peaks(0)
		if leftPeak < d.MinPixWin && flp > leftPeak {
			leftBase, leftPeak = flb, flp
		}
		if rightPeak < d.MinPixWin && frp > rightPeak {
			rightBase, rightPeak = frb, frp
		}
	}
	_ = leftPeak
	_ = rightPeak

	res := Result{}
	leftXs, leftYs := d.trackLane(mask, leftBase, sc.leftXs[:0], sc.leftYs[:0])
	rightXs, rightYs := d.trackLane(mask, rightBase, sc.rightXs[:0], sc.rightYs[:0])
	sc.leftXs, sc.leftYs = leftXs, leftYs
	sc.rightXs, sc.rightYs = rightXs, rightYs
	res.CandidatePixels = len(leftXs) + len(rightXs)

	// Convert candidate pixels to ground coordinates and fold both
	// markings into one lane-center point set: each left-marking pixel
	// votes for a center half a lane to its right and vice versa. With
	// dotted markings whose dashes are phase-offset across the lane, the
	// two sides interleave along the distance axis, so the center fit is
	// supported over the whole ROI even when one side's near dash is in a
	// gap — the failure mode a single-sided fit extrapolates through.
	half := world.StandardLaneWidth / 2
	toGround := func(xs, ys []float64, offset float64, ds, lats []float64) ([]float64, []float64, float64) {
		var meanLat float64
		for i := range xs {
			dist := d.rowToDist(roi, int(ys[i]))
			lat := d.colToLat(roi, ys[i], xs[i])
			ds = append(ds, dist)
			lats = append(lats, lat+offset)
			meanLat += lat
		}
		if len(xs) > 0 {
			meanLat /= float64(len(xs))
		}
		return ds, lats, meanLat
	}
	leftDs, leftCs, leftMean := toGround(leftXs, leftYs, -half, sc.leftDs[:0], sc.leftCs[:0])
	rightDs, rightCs, rightMean := toGround(rightXs, rightYs, +half, sc.rightDs[:0], sc.rightCs[:0])
	sc.leftDs, sc.leftCs = leftDs, leftCs
	sc.rightDs, sc.rightCs = rightDs, rightCs

	res.LeftFound = len(leftDs) >= d.MinPixLane
	res.RightFound = len(rightDs) >= d.MinPixLane

	// Guard against both windows latching onto the same marking: if the
	// two pixel sets overlap laterally, keep only the better-supported one.
	if res.LeftFound && res.RightFound && math.Abs(leftMean-rightMean) < 1.0 {
		if len(leftDs) >= len(rightDs) {
			res.RightFound = false
		} else {
			res.LeftFound = false
		}
	}

	ds, cs := sc.ds[:0], sc.cs[:0]
	if res.LeftFound {
		ds = append(ds, leftDs...)
		cs = append(cs, leftCs...)
	}
	if res.RightFound {
		ds = append(ds, rightDs...)
		cs = append(cs, rightCs...)
	}
	sc.ds, sc.cs = ds, cs
	if len(ds) < d.MinPixLane {
		return res
	}

	// Lane-center fit in ground coordinates, with the polynomial order
	// adapted to the pixel support: the second-order fit of Fig. 3b needs
	// samples spanning the look-ahead point; when a dotted marking leaves
	// only a far dash cluster, quadratic extrapolation down to LL swings
	// wildly, so the fit degrades gracefully to a line.
	minD, maxD := ds[0], ds[0]
	for _, dd := range ds {
		if dd < minD {
			minD = dd
		}
		if dd > maxD {
			maxD = dd
		}
	}
	degree := 2
	if maxD-minD < 6 || minD > lookAhead+2.5 {
		degree = 1
	}
	coeffs, err := sc.fit.PolyFit(ds, cs, degree)
	if err != nil {
		return res
	}
	res.YL = mat.PolyEval(coeffs, lookAhead)
	if degree == 2 {
		res.Curvature = 2 * coeffs[2]
	}
	// Plausibility: a lane center beyond the paved corridor is clutter.
	if math.Abs(res.YL) > 3.5 {
		return Result{CandidatePixels: res.CandidatePixels}
	}
	res.OK = true
	return res
}

// trackLane slides windows from the bottom to the top of the mask,
// re-centering on the mean column of the pixels found, and returns the
// candidate pixel coordinates (cols, rows) appended to xs, ys.
func (d *Detector) trackLane(mask []bool, base int, xs, ys []float64) ([]float64, []float64) {
	if base < 0 {
		return xs, ys
	}
	w, h := d.BevW, d.BevH
	winH := h / d.NumWindows
	if winH < 1 {
		winH = 1
	}
	center := base
	for win := 0; win < d.NumWindows; win++ {
		yHi := h - win*winH
		yLo := yHi - winH
		if yLo < 0 {
			yLo = 0
		}
		xLo, xHi := center-d.MarginCols, center+d.MarginCols
		if xLo < 0 {
			xLo = 0
		}
		if xHi >= w {
			xHi = w - 1
		}
		var sumX, cnt int
		for y := yLo; y < yHi; y++ {
			for x := xLo; x <= xHi; x++ {
				if mask[y*w+x] {
					xs = append(xs, float64(x))
					ys = append(ys, float64(y))
					sumX += x
					cnt++
				}
			}
		}
		if cnt >= d.MinPixWin {
			center = sumX / cnt
		}
	}
	return xs, ys
}

// XavierRuntimeMs is the paper's profiled PR runtime on the NVIDIA AGX
// Xavier (Table II).
const XavierRuntimeMs = 3.0

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
