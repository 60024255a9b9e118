package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// resizeOracle is the per-pixel loop ResizeInto replaced: every plane
// sampled at every output pixel's centre by sampleOracle.
func resizeOracle(im, out *RGB) {
	w, h := out.W, out.H
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	planesIn := [][]float32{im.R, im.G, im.B}
	planesOut := [][]float32{out.R, out.G, out.B}
	for p := 0; p < 3; p++ {
		src := &Gray{W: im.W, H: im.H, Pix: planesIn[p]}
		dst := planesOut[p]
		for y := 0; y < h; y++ {
			fy := (float64(y)+0.5)*sy - 0.5
			for x := 0; x < w; x++ {
				fx := (float64(x)+0.5)*sx - 0.5
				dst[y*w+x] = sampleOracle(src, fx, fy)
			}
		}
	}
}

// sampleOracle is the bilinear sample of g at (x, y), 0 at a NaN
// position, with the blend written out rather than taken from Bilerp,
// its sums left to right through addLeft.
func sampleOracle(g *Gray, x, y float64) float32 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0
	}
	x = clampF(x, 0, float64(g.W-1))
	y = clampF(y, 0, float64(g.H-1))
	x0, y0 := int(x), int(y)
	x1, y1 := min(x0+1, g.W-1), min(y0+1, g.H-1)
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.Pix[y0*g.W+x0]
	v10 := g.Pix[y0*g.W+x1]
	v01 := g.Pix[y1*g.W+x0]
	v11 := g.Pix[y1*g.W+x1]
	return addLeft(addLeft(addLeft(v00*(1-fx)*(1-fy), v10*fx*(1-fy)), v01*(1-fx)*fy), v11*fx*fy)
}

// addLeft is a + b as x86 adds with a first: a where a is NaN, else
// the sum (which is b where only b is NaN).
func addLeft(a, b float32) float32 {
	if a != a {
		return a
	}
	return a + b
}

// resizeSpecials are pixel values the blend must carry exactly: NaNs
// with either sign and distinct payloads (one signaling), ±Inf, ±0, subnormals and values outside [0, 1].
var resizeSpecials = []float32{
	math.Float32frombits(0xffc00000), float32(math.NaN()),
	math.Float32frombits(0x7fa00001), math.Float32frombits(0xffd00002),
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-40,
	-0.5, 1.5, 3e38, -3e38,
}

// randomRGB fills a w×h frame with uniform [0, 1) samples, one in
// specialEvery of them (0: none) replaced by a resizeSpecials value.
func randomRGB(rng *rand.Rand, w, h, specialEvery int) *RGB {
	im := NewRGB(w, h)
	for _, plane := range [][]float32{im.R, im.G, im.B} {
		for i := range plane {
			if specialEvery > 0 && rng.Intn(specialEvery) == 0 {
				plane[i] = resizeSpecials[rng.Intn(len(resizeSpecials))]
			} else {
				plane[i] = rng.Float32()
			}
		}
	}
	return im
}

// TestResizeIntoMatchesSample pins the separable-footprint ResizeInto to
// the per-pixel sampleOracle loop, bit for bit: random sizes shrinking and
// growing (1×N and N×1 sources among them), the classifier shapes from
// the loop's frame sizes, widths past the footprint strip of
// resizeCols columns, and frames holding NaN, ±Inf, ±0, subnormals and
// out-of-range values. NaN payloads must match too: where two NaN terms
// meet, the left one's. out starts poisoned, so a pixel left unwritten
// fails too.
func TestResizeIntoMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type pair struct{ sw, sh, w, h int }
	var pairs []pair
	for _, src := range [][2]int{{96, 48}, {192, 96}} {
		for _, dst := range [][2]int{{48, 24}, {80, 40}} {
			pairs = append(pairs, pair{src[0], src[1], dst[0], dst[1]})
		}
	}
	pairs = append(pairs,
		pair{1, 1, 5, 3}, pair{1, 9, 4, 4}, pair{9, 1, 4, 4}, pair{1, 17, 1, 3}, pair{23, 1, 7, 1},
		pair{5, 3, 1, 1}, pair{300, 4, resizeCols + 1, 3}, pair{40, 4, 2*resizeCols + 37, 5},
		pair{2*resizeCols + 9, 6, 2*resizeCols + 9, 6}, pair{700, 2, 3*resizeCols - 1, 2},
	)
	for range 400 {
		pairs = append(pairs, pair{1 + rng.Intn(130), 1 + rng.Intn(70), 1 + rng.Intn(130), 1 + rng.Intn(70)})
	}
	poison := math.Float32frombits(0x7f812345)
	for i, p := range pairs {
		special := []int{0, 5, 2}[i%3]
		im := randomRGB(rng, p.sw, p.sh, special)
		got, want := NewRGB(p.w, p.h), NewRGB(p.w, p.h)
		for _, plane := range [][]float32{got.R, got.G, got.B} {
			for j := range plane {
				plane[j] = poison
			}
		}
		if im.ResizeInto(got) != got {
			t.Fatal("ResizeInto did not return out")
		}
		resizeOracle(im, want)
		for k, planes := range [3][2][]float32{{got.R, want.R}, {got.G, want.G}, {got.B, want.B}} {
			for j := range planes[1] {
				if g, w := planes[0][j], planes[1][j]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%dx%d → %dx%d (specials 1/%d) plane %d pixel (%d, %d) = %#08x, oracle %#08x",
						p.sw, p.sh, p.w, p.h, special, k, j%p.w, j/p.w, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
	}
}

var benchRGB *RGB

// BenchmarkResize times ResizeInto on the three classifier input shapes
// (road and scene 48×24, lane 80×40) from the loop-cnn and loop-robust
// frame sizes, into a reused output as Classifier.Classify runs it.
func BenchmarkResize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, src := range [][2]int{{96, 48}, {192, 96}} {
		im := randomRGB(rng, src[0], src[1], 0)
		for _, dst := range []struct {
			name string
			w, h int
		}{{"road", 48, 24}, {"lane", 80, 40}, {"scene", 48, 24}} {
			b.Run(fmt.Sprintf("%dx%d/%s", src[0], src[1], dst.name), func(b *testing.B) {
				out := NewRGB(dst.w, dst.h)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					benchRGB = im.ResizeInto(out)
				}
			})
		}
	}
}
