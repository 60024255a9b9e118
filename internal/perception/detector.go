package perception

import (
	"math"
	"sort"

	"hsas/internal/cpufeat"
	"hsas/internal/mat"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// Detector is the sliding-window lane detector. It is resolution
// independent: the bird's-eye view (BEV) is sampled directly from the
// ground-plane mapping, so the same ROIs work for full-size and test-size
// frames.
//
// Detect reuses per-detector scratch (BEV raster, filter buffers, BEV
// sampling footprint, candidate-pixel slices, fit workspace) across
// invocations, so a Detector must not run Detect concurrently with
// itself; parallel closed-loop runs each construct their own Detector.
type Detector struct {
	Geo Geometry

	// Team splits the rows of the BEV scoring; nil scores them on the
	// calling goroutine. Each BEV row is scored from its own samples, so
	// the result is the same for every team.
	Team *mat.Team

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

	// scratch holds the reusable per-invocation buffers. It is a pointer
	// so the by-value working copy Detect makes shares (and persists) the
	// grown capacity. Lazily initialized, so literal-constructed
	// Detectors work too.
	scratch *detScratch
}

// detScratch is the per-detector buffer arena. Every buffer is either
// fully overwritten per invocation (bev, smooth, mask, hist) or
// reset to length zero and appended to (the candidate-pixel and fit
// slices), so no state leaks between frames. The sampling footprint is
// a function of its key alone, so reusing it leaks nothing either.
type detScratch struct {
	bev    raster.Gray
	smooth []float32
	mask   []bool
	hist   []int
	fp     bevFootprint

	leftXs, leftYs, rightXs, rightYs []float64
	leftDs, leftCs, rightDs, rightCs []float64
	ds, cs                           []float64
	fit                              mat.Fitter

	// The BEV scoring's row split reads its frame from here, through
	// score, sc.scoreRows bound once so the split allocates nothing.
	score    func(i0, i1 int)
	scoreOut *raster.Gray
	scoreImg *raster.RGB
	scoreFP  *bevFootprint
}

// ensure sizes the dense BEV buffers for a w×h raster.
func (sc *detScratch) ensure(w, h int) {
	n := w * h
	sc.bev.W, sc.bev.H = w, h
	sc.bev.Pix = grow(sc.bev.Pix, n)
	sc.smooth = grow(sc.smooth, n)
	sc.mask = grow(sc.mask, n)
	sc.hist = grow(sc.hist, w)
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	binary, any := binarizeInto(score, sc.smooth, sc.mask)
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

// bevKey is everything the BEV sampling footprint depends on: the
// ground-to-image mapping, the ROI, and the BEV and image sizes. The
// frame contents never enter it.
type bevKey struct {
	geo        Geometry
	roi        ROI
	bevW, bevH int
	imgW, imgH int
}

// bevRow is the part of the footprint shared by a whole BEV row: every
// sample of a row lies at one forward distance, so they share the image
// row v (GroundToImage's v depends on the distance alone).
type bevRow struct {
	ok     bool    // some sample of the row lands on the image
	r0, r1 int     // y0*imgW and y1*imgW, the bilinear source rows
	fy     float32 // v - y0
}

// bevSample is one BEV pixel's horizontal footprint; x0 is -1 when the
// ground point misses the image (the pixel scores 0).
type bevSample struct {
	x0 int32
	fx float32
}

// bevFootprint is the bilinear sampling footprint of every BEV pixel,
// built once per key and reused across frames.
type bevFootprint struct {
	key     bevKey
	rows    []bevRow
	samples []bevSample
}

// footprint returns the sampling footprint for the ROI and image size,
// rebuilding the single cached slot in place when its key changes. A
// sample's footprint is the bilinear one at its projection (u, v): the
// corner (x0, y0) = (int(u), int(v)), its neighbours one column and one
// row on clamped to the image, and the weights u - x0 and v - y0.
func (d *Detector) footprint(roi ROI, iw, ih int) *bevFootprint {
	fp := &d.scratch.fp
	key := bevKey{geo: d.Geo, roi: roi, bevW: d.BevW, bevH: d.BevH, imgW: iw, imgH: ih}
	if fp.key == key {
		return fp
	}
	w, h := d.BevW, d.BevH
	fp.key = key
	fp.rows = grow(fp.rows, h)
	fp.samples = grow(fp.samples, w*h)
	for row := 0; row < h; row++ {
		dist := d.rowToDist(roi, row)
		left, right := roi.LatAt(dist)
		fr := bevRow{}
		for col := 0; col < w; col++ {
			u, v, ok := d.project(dist, left, right, col, iw, ih)
			if !ok {
				fp.samples[row*w+col] = bevSample{x0: -1}
				continue
			}
			// (u, v) lies on the image, so only the neighbours need
			// clamping: the row's here, the column's in scoreRow.
			x0, y0 := int(u), int(v)
			fr = bevRow{ok: true, r0: y0 * iw, r1: min(y0+1, ih-1) * iw, fy: float32(v - float64(y0))}
			fp.samples[row*w+col] = bevSample{x0: int32(x0), fx: float32(u - float64(x0))}
		}
		fp.rows[row] = fr
	}
	return fp
}

// project returns where the BEV sample in column col of the row at
// distance dist, whose lateral bounds are left and right, lands on an
// iw×ih image, and whether it lands on it at all. Rejecting NaN here
// gives the 0 that sampling NaN coordinates would score.
func (d *Detector) project(dist, left, right float64, col, iw, ih int) (u, v float64, ok bool) {
	lat := left + (right-left)*float64(col)/float64(d.BevW-1)
	u, v, ok = d.Geo.GroundToImage(dist, lat)
	return u, v, ok && u >= 0 && v >= 0 && u <= float64(iw-1) && v <= float64(ih-1)
}

// SourceSpans sets dst, resized to ih rows, to the pixels of an iw×ih
// frame that Detect reads under roi, and returns it: on both bilinear
// source rows of every BEV row that lands on the image, the columns x0
// and min(x0+1, iw-1) of each of its samples on the image, which is all
// its footprint reads. A row's span is the hull of what its BEV rows
// read, so its first and last columns are read; a row nothing reads is
// empty.
//
// It projects O(log BevW) samples per BEV row, not all BevW: every
// sample of a row has the same image row v (see bevRow), and its column
// u is monotone in the BEV column, since each rounded operation from the
// column to u is. So a row's samples on the image are one run of
// columns, whose ends a bisection finds, and whose first and last
// samples hold the least and greatest x0.
func (d *Detector) SourceSpans(dst []raster.Span, iw, ih int, roi ROI) []raster.Span {
	dst = grow(dst, ih)
	clear(dst)
	work := *d
	work.BevW = d.bevWidth(roi)
	n := work.BevW
	for row := 0; row < work.BevH; row++ {
		dist := work.rowToDist(roi, row)
		left, right := roi.LatAt(dist)
		u := func(col int) float64 {
			u, _, _ := work.project(dist, left, right, col, iw, ih)
			return u
		}
		// The run [c0, c1] of columns with 0 <= u <= iw-1; NaN columns
		// satisfy neither bound, so a row of them has an empty run.
		var c0, c1 int
		if u(0) <= u(n-1) {
			c0 = sort.Search(n, func(c int) bool { return u(c) >= 0 })
			c1 = sort.Search(n, func(c int) bool { return u(c) > float64(iw-1) }) - 1
		} else {
			c0 = sort.Search(n, func(c int) bool { return u(c) <= float64(iw-1) })
			c1 = sort.Search(n, func(c int) bool { return u(c) < 0 }) - 1
		}
		if c0 > c1 {
			continue
		}
		u0, v, ok0 := work.project(dist, left, right, c0, iw, ih)
		u1, _, ok1 := work.project(dist, left, right, c1, iw, ih)
		if !ok0 || !ok1 {
			continue // the row's v is off the image
		}
		x0, x1 := min(int(u0), int(u1)), max(int(u0), int(u1))
		read := raster.Span{A: x0, B: min(x1+1, iw-1) + 1}
		for _, y := range [2]int{int(v), min(int(v)+1, ih-1)} {
			if s := dst[y]; s.A < s.B {
				dst[y] = raster.Span{A: min(s.A, read.A), B: max(s.B, read.B)}
			} else {
				dst[y] = read
			}
		}
	}
	return dst
}

// scoreBEVInto samples the bird's-eye view of the ROI into out (sized
// BevW×BevH) and computes the lane-pixel score: luminance for white
// paint plus an R-B chroma term for yellow paint. Each plane's sample is
// quantized to 8 bits first (qz), as the PR stage reads an 8-bit image
// buffer on the target platform. It gathers through the cached
// footprint, the three planes sharing each bilinear footprint. Every
// pixel is written (unmapped samples score 0), so out may be a recycled
// buffer with arbitrary contents. The footprint lives in d.scratch,
// which Detect allocates.
//
// The rows are split over d.Team. With AVX2 present, scoreRowAVX
// scores each row eight pixels at a time and scoreRow the last BevW mod
// 8; otherwise scoreRow scores every pixel.
func (d *Detector) scoreBEVInto(out *raster.Gray, img *raster.RGB, roi ROI) *raster.Gray {
	sc := d.scratch
	if sc.score == nil {
		sc.score = sc.scoreRows
	}
	sc.scoreOut, sc.scoreImg, sc.scoreFP = out, img, d.footprint(roi, img.W, img.H)
	d.Team.Rows(len(sc.scoreFP.rows), sc.score)
	sc.scoreOut, sc.scoreImg = nil, nil
	return out
}

// scoreRows is one chunk of scoreBEVInto's row split: it scores the BEV
// rows [i0, i1).
func (sc *detScratch) scoreRows(i0, i1 int) {
	fp, out := sc.scoreFP, sc.scoreOut
	w := fp.key.bevW
	for row := i0; row < i1; row++ {
		orow := out.Pix[row*w : (row+1)*w]
		if fr := fp.rows[row]; fr.ok {
			scoreBEVRow(orow, fp.samples[row*w:(row+1)*w], sc.scoreImg, fr)
		} else {
			clear(orow)
		}
	}
}

// scoreBEVRow scores one on-image BEV row, whose per-pixel footprints
// are samples and whose source rows and vertical weight are in fr. Every
// sample's x0 is -1 or a column of img, as footprint builds them.
func scoreBEVRow(orow []float32, samples []bevSample, img *raster.RGB, fr bevRow) {
	iw := img.W
	src := bevSrc{
		img.R[fr.r0:][:iw], img.R[fr.r1:][:iw],
		img.G[fr.r0:][:iw], img.G[fr.r1:][:iw],
		img.B[fr.r0:][:iw], img.B[fr.r1:][:iw],
	}
	if v := len(orow) &^ 7; detectAVX && v > 0 {
		scoreRowAVX(&orow[0], &samples[:v][0], v, &src, fr.fy, int32(iw-1), &scoreWeights)
		orow, samples = orow[v:], samples[v:]
	}
	scoreRow(orow, samples, &src, fr.fy)
}

// detectAVX selects the AVX2 row kernels of scoreBEVInto and
// binarizeInto. It is set once from the CPU probe; tests clear it to run
// the pure-Go path.
var detectAVX = cpufeat.AVX2

// bevSrc holds one BEV row's two bilinear source rows of each plane:
// R upper and lower, then G, then B.
type bevSrc [6][]float32

// scoreWeights are the score's constants as scoreRow rounds them: the
// luma weights of R, G and B, then the chroma weight.
var scoreWeights = [4]float32{0.2126, 0.7152, 0.0722, 0.9}

// scoreRow scores the BEV pixels of one row whose horizontal footprints
// are samples (len(orow) of them), reading the source rows src at
// vertical weight fy.
func scoreRow(orow []float32, samples []bevSample, src *bevSrc, fy float32) {
	gy := 1 - fy
	xMax := len(src[0]) - 1
	for col, s := range samples[:len(orow)] {
		if s.x0 < 0 {
			orow[col] = 0
			continue
		}
		a := int(s.x0)
		b := min(a+1, xMax)
		f := s.fx
		g := 1 - f
		r := qz(raster.Bilerp(src[0][a], src[0][b], src[1][a], src[1][b], f, g, fy, gy))
		gr := qz(raster.Bilerp(src[2][a], src[2][b], src[3][a], src[3][b], f, g, fy, gy))
		bl := qz(raster.Bilerp(src[4][a], src[4][b], src[5][a], src[5][b], f, g, fy, gy))
		chroma := r - bl
		if chroma < 0 {
			chroma = 0
		}
		// luma + k3·chroma, luma = k0·r + k1·g + k2·b, summed left to
		// right with a NaN left operand kept, as raster.Bilerp sums.
		v := scoreWeights[0] * r
		if v == v {
			v += scoreWeights[1] * gr
		}
		if v == v {
			v += scoreWeights[2] * bl
		}
		if v == v {
			v += scoreWeights[3] * chroma
		}
		orow[col] = v
	}
}

// qzTab[k] is the 8-bit level k as a sample, float32(k)/255.
var qzTab = func() (t [256]float32) {
	for k := range t {
		t[k] = float32(k) / 255
	}
	return t
}()

// qz quantizes a sample to 8 bits, emulating the PR input buffer:
// float32(math.Round(float64(v)*255)) / 255 of the clamped sample, by
// table. For v in (0, 1], float64(v)*255 is exact (24 by 8 significant
// bits) and adding 0.5 is exact from 2^-21 up, so truncating the sum
// rounds half away from zero as math.Round does; below that both round
// to level 0. ±0 and NaN take the division, which keeps their bits as
// the rounding did.
func qz(v float32) float32 {
	v = raster.Clamp01(v)
	if !(v > 0) {
		return v / 255
	}
	return qzTab[int(float64(v)*255+0.5)]
}

// rowToDist maps a BEV row to a forward distance (row 0 = far edge).
func (d *Detector) rowToDist(roi ROI, row int) float64 {
	t := float64(row) / float64(d.BevH-1)
	return roi.FarDist - t*(roi.FarDist-roi.NearDist)
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

// binarizeInto converts a score map into a boolean lane-pixel mask. The
// score is first top-hat normalized (each pixel minus the local
// horizontal mean), removing smooth illumination gradients — the
// headlight hot spot at night, street-light pools — while preserving the
// narrow bright stripes of painted markings. The result is thresholded
// against the normalized map's own statistics (the paper's "dynamic
// thresholding"). any is false when the mask is empty.
//
// smooth and mask are caller-held scratch of len(score.Pix) elements
// each; both are fully overwritten, so recycled buffers with stale
// contents are fine. The returned mask aliases the mask argument.
func binarizeInto(score *raster.Gray, smooth []float32, mask []bool) ([]bool, bool) {
	w, h := score.W, score.H
	pix := score.Pix

	// One pass per row smooths, filters and accumulates the statistics.
	var sums [2]float64
	for y := 0; y < h; y++ {
		// Vertical smoothing first: markings are vertically extended
		// stripes in the bird's-eye view, so averaging a few rows is a
		// matched filter that suppresses single-pixel texture speckle
		// without blurring the stripe laterally. Interior rows take all
		// five taps (weights 1 2 3 2 1, sum 9), added to +0 in the
		// border loop's order so every bit matches it.
		row := smooth[y*w : (y+1)*w]
		if y >= 2 && y < h-2 {
			smoothRow(row, pix[(y-2)*w:(y+3)*w])
		} else {
			for x := range row {
				var s, wsum float32
				for dy := -2; dy <= 2; dy++ {
					yy := y + dy
					if yy < 0 || yy >= h {
						continue
					}
					wt := float32(3 - abs(dy))
					s += wt * pix[yy*w+x]
					wsum += wt
				}
				row[x] = s / wsum
			}
		}
		stripeSums(row, &sums)
	}
	n := float64(w * h)
	mean := sums[0] / n
	variance := sums[1]/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	th := mean + threshKSigma*std
	if th < threshFloor {
		th = threshFloor
	}

	// Threshold and stripe-width filter, one row at a time, recomputing
	// the response rather than storing the map. th is at least
	// threshFloor > 0 (or NaN), so a pixel is on exactly when its
	// response exceeds th, and the zeros outside the filter's span never
	// are. Painted markings are 2–3 BEV columns wide, while brightness
	// steps (shoulder edges, the rim of the headlight pool) survive the
	// top-hat as bands about as wide as its window. Clearing over-wide
	// horizontal runs rejects those edges.
	any := false
	for y := 0; y < h; y++ {
		mrow := mask[y*w : (y+1)*w]
		stripeMask(mrow, smooth[y*w:(y+1)*w], th)
		if clearWideRuns(mrow) {
			any = true
		}
	}
	return mask, any
}

// smoothRow writes the interior five-tap smoothing of the rows in win
// (five consecutive rows of len(row) pixels) to row: the taps added to
// +0 in row order, then divided by 9. With AVX2 smoothRowAVX takes the
// columns in groups of eight and the loop the rest.
func smoothRow(row, win []float32) {
	w := len(row)
	p0 := win[0*w:][:w]
	p1 := win[1*w:][:w]
	p2 := win[2*w:][:w]
	p3 := win[3*w:][:w]
	p4 := win[4*w:][:w]
	x := 0
	if v := w &^ 7; detectAVX && v > 0 {
		smoothRowAVX(&row[0], &win[0], w, v)
		x = v
	}
	for ; x < w; x++ {
		var s float32
		s += 1 * p0[x]
		s += 2 * p1[x]
		s += 3 * p2[x]
		s += 2 * p3[x]
		s += 1 * p4[x]
		row[x] = s / 9
	}
}

// stripeSums adds every positive lane-filter response of the smoothed
// row to sums[0] and its square to sums[1], serially in column order.
// The normalized map is the positive part of the response, 0 elsewhere;
// the statistics skip the zeros, each of which would add +0 to a
// non-negative running sum and leave its bits unchanged. With AVX2
// stripeSumsAVX takes the columns four at a time and the loop the rest.
func stripeSums(row []float32, sums *[2]float64) {
	x, end := stripeTau, len(row)-stripeTau
	if v := (end - x) &^ 3; detectAVX && v > 0 {
		stripeSumsAVX(&row[0], v, sums)
		x += v
	}
	sum, sum2 := sums[0], sums[1]
	for ; x < end; x++ {
		if resp := stripeResponse(row, x); resp > 0 {
			sum += resp
			sum2 += resp * resp
		}
	}
	sums[0], sums[1] = sum, sum2
}

// stripeMask sets mrow[x] where the lane-filter response of the
// smoothed row exceeds th and clears it elsewhere, including the
// stripeTau columns at either end that the filter does not reach. With
// AVX2 stripeMaskAVX takes the columns four at a time and the loop the
// rest.
func stripeMask(mrow []bool, row []float32, th float64) {
	mrow = mrow[:len(row)]
	clear(mrow)
	x, end := stripeTau, len(row)-stripeTau
	if v := (end - x) &^ 3; detectAVX && v > 0 {
		stripeMaskAVX(&mrow[0], &row[0], v, th)
		x += v
	}
	for ; x < end; x++ {
		mrow[x] = stripeResponse(row, x) > th
	}
}

// clearWideRuns clears every run of set pixels in mrow wider than
// maxStripeCols and reports whether any pixel stays set.
func clearWideRuns(mrow []bool) bool {
	any := false
	start := 0
	for x := 0; x <= len(mrow); x++ {
		if x < len(mrow) && mrow[x] {
			continue
		}
		if x-start > maxStripeCols {
			clear(mrow[start:x])
		} else if x > start {
			any = true
		}
		start = x + 1
	}
	return any
}

// stripeResponse is the lane-marking filter (Nieto et al.) at column x
// of a smoothed row: a pixel responds only when it is brighter than BOTH
// lateral neighbors at stripe distance, so painted stripes fire while
// one-sided brightness steps — shoulder edges, the rim of the headlight
// pool — cancel to ~zero:
//
//	r(x) = 2 v(x) - v(x-tau) - v(x+tau) - |v(x-tau) - v(x+tau)|
func stripeResponse(row []float32, x int) float64 {
	l := float64(row[x-stripeTau])
	r := float64(row[x+stripeTau])
	return 2*float64(row[x]) - l - r - math.Abs(l-r)
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
		sc.hist = grow(sc.hist, w)
		hist := sc.hist
		clear(hist)
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
			leftBase = flb
		}
		if rightPeak < d.MinPixWin && frp > rightPeak {
			rightBase = frb
		}
	}

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
