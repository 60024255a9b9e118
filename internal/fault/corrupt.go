// Deterministic image-corruption kernels. The buffer-mutating ones run
// serially on purpose: they execute only on frames where a fault fires,
// and a single xorshift stream keyed by FrameHash keeps the corrupted
// bytes identical for any pipeline worker count. MarkingOccluded is the
// exception — it is a pure per-point predicate evaluated from inside
// the row-parallel renderer.
package fault

import (
	"math"

	"hsas/internal/raster"
)

// xorshift64 advances a xorshift64* state; the caller seeds it with a
// FrameHash so the stream is a pure function of (seed, frame).
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// AddBayerNoise adds a zero-mean uniform burst of amplitude sigma
// (normalized photosite units) to the RAW samples of spans (one per
// row), clamped to [0, 1]. The burst is one stream over the frame in
// raster order, so each sample of spans gets the value the whole-frame
// burst gives it: the stream steps through the samples between spans
// without touching them, and stops after the last span.
func AddBayerNoise(raw *raster.Bayer, spans []raster.Span, sigma float64, streamSeed uint64) {
	x := streamSeed | 1
	s := float32(sigma)
	next := 0 // the raster index of the sample x was last stepped to, plus one
	for y, sp := range spans {
		if sp.A >= sp.B {
			continue
		}
		for range y*raw.W + sp.A - next {
			x = xorshift64(x)
		}
		row := raw.Pix[y*raw.W+sp.A : y*raw.W+sp.B]
		for i, p := range row {
			x = xorshift64(x)
			u := float32(rand01(x))*2 - 1
			v := p + u*s
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			row[i] = v
		}
		next = y*raw.W + sp.B
	}
}

// CorruptRGBBand overwrites a horizontal band covering frac of the
// image's rows with hash-derived garbage (a stuck-DMA / partial-frame
// model). The band position and contents are pure functions of
// streamSeed. frac is clamped to [0, 1]; frac <= 0 corrupts one row.
func CorruptRGBBand(img *raster.RGB, frac float64, streamSeed uint64) {
	if frac > 1 {
		frac = 1
	}
	rows := int(frac * float64(img.H))
	if rows < 1 {
		rows = 1
	}
	y0 := 0
	if rows < img.H {
		y0 = int(streamSeed % uint64(img.H-rows+1))
	} else {
		rows = img.H
	}
	x := streamSeed | 1
	for y := y0; y < y0+rows; y++ {
		row := y * img.W
		for i := row; i < row+img.W; i++ {
			x = xorshift64(x)
			// Saturated per-channel garbage: each channel snaps to 0 or 1
			// from one hash bit, the high-contrast worst case for the
			// gradient-based lane detector.
			img.R[i] = float32(x & 1)
			img.G[i] = float32((x >> 1) & 1)
			img.B[i] = float32((x >> 2) & 1)
		}
	}
}

// Occluded lane-marking patch geometry: roughly the scale of real paint
// wear — short stretches of marking flaking off, not single pixels and
// not whole dashes.
const (
	occludePatchS   = 0.4  // patch length along the track arclength, m
	occludePatchLat = 0.15 // patch width across the marking, m
)

// OcclusionSeed derives the run-constant stream seed for the occlusion
// pattern. The pattern is fixed in world space for the whole run
// (persistent paint damage) rather than per-frame: a flickering pattern
// would average out across the detector's sliding window, while a
// static one is the adversarial worst case the margin search is after.
func OcclusionSeed(seed int64) uint64 { return hash64(seed, -1, 0x0CC1) }

// MarkingOccluded reports whether the painted-marking patch at track
// coordinates (s, lat) is occluded, given the occluded area fraction
// frac and the run's OcclusionSeed. It is a pure function of its
// arguments, so the row-parallel renderer stays byte-identical to the
// serial one, and the occluded patch sets are NESTED across fractions:
// every patch occluded at frac f is also occluded at any f' > f. That
// nesting is what keeps the adversarial search's probe outcomes
// monotone-shaped in the magnitude rather than jumping between
// unrelated occlusion patterns.
func MarkingOccluded(s, lat, frac float64, streamSeed uint64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	si := int64(math.Floor(s / occludePatchS))
	li := int(math.Floor(lat / occludePatchLat))
	return rand01(hash64(si, li, streamSeed)) < frac
}
