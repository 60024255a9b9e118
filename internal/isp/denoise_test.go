package isp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// Edge values for the denoise kernel. With a center of ±0, a neighbor
// of ±cutoffD puts the tap's x = ((−d)·d)·inv2s2 exactly on the −8
// cutoff, ±cutoffBelowD one ulp below it, and ±cutoffAboveD on the
// nearest x above it that any float32 d reaches (the ulp just above −8
// is not reachable). tinyD makes a subnormal d² product.
var (
	cutoffD      = math.Float32frombits(0x3ea3d70a) // 0.32
	cutoffBelowD = math.Nextafter32(cutoffD, 1)
	cutoffAboveD = math.Nextafter32(cutoffD, 0)
	tinyD        = float32(1e-20)
	defaultNaN   = math.Float32frombits(0xffc00000) // x86's default NaN
	negZero      = float32(math.Copysign(0, -1))
)

var denoiseSpecials = []float32{
	defaultNaN, float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero,
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	tinyD, -tinyD, cutoffD, -cutoffD, cutoffBelowD, -cutoffBelowD, cutoffAboveD, -cutoffAboveD,
	1e30, -math.MaxFloat32,
}

// tapX is the range-kernel argument bilateralTap hands expFast.
func tapX(v, c float32) float32 {
	d := v - c
	return -d * d * denoiseInv2s2
}

// denoiseFused is one denoiseInterior pixel whose sums are fused
// multiply-adds; a kernel that fused them would match it, not the
// scalar loop.
func denoiseFused(up, mid, dn []float32, x int) float32 {
	taps := [9]float32{up[x-1], up[x], up[x+1], mid[x-1], mid[x], mid[x+1], dn[x-1], dn[x], dn[x+1]}
	c := mid[x]
	var sum, wsum float32
	for i, v := range taps {
		d := v - c
		wt := denoiseSpatial[i] * expFast(-d*d*denoiseInv2s2)
		sum = float32(math.FMA(float64(wt), float64(v), float64(sum)))
		wsum += wt
	}
	return sum / wsum
}

// TestDenoiseAVXMatchesScalar pins the dispatched interior row — the
// AVX kernel plus its pure-Go column tail on amd64 — to the pure-Go
// denoiseInterior on every row width from 3 (no interior vector group
// below 10) to 40 (every tail length). Inputs mix noisy pixels with
// NaN, ±Inf, ±0, subnormals, subnormal d² products and taps on and one
// step either side of the expFast cutoff. Outputs must match bit for
// bit; a NaN must meet a NaN, whose payload x86 leaves to operand order
// (DESIGN.md §5). The test also checks that its inputs reach every edge
// in the lanes of the path under test and that fusing the sums would
// change an output there.
func TestDenoiseAVXMatchesScalar(t *testing.T) {
	if tapX(cutoffD, 0) != -8 || tapX(cutoffBelowD, 0) != math.Nextafter32(-8, -9) ||
		!(tapX(cutoffAboveD, 0) > -8) {
		t.Fatal("cutoff inputs no longer straddle x = -8")
	}
	if x := tapX(tinyD, 0); x == 0 || math.Abs(float64(-tinyD*tinyD)) >= 0x1p-126 {
		t.Fatalf("tinyD gives d² product %v, x %v: want a nonzero subnormal", -tinyD*tinyD, x)
	}
	for _, path := range []struct {
		name string
		avx  bool
	}{{"dispatch", denoiseAVX}, {"pure-go", false}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(was bool) { denoiseAVX = was }(denoiseAVX)
			denoiseAVX = path.avx
			if !path.avx {
				t.Log("AVX kernel off: the dispatched row is the pure-Go loop")
			}
			checkDenoiseRows(t)
		})
	}
}

func checkDenoiseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	edges := map[string]bool{}
	mark := func(v, c float32) {
		switch x := tapX(v, c); {
		case x == -8:
			edges["x=-8"] = true
		case x == math.Nextafter32(-8, -9):
			edges["x below -8"] = true
		case x > -8 && x == tapX(cutoffAboveD, 0):
			edges["x above -8"] = true
		}
		if p := -(v - c) * (v - c); p != 0 && math.Abs(float64(p)) < 0x1p-126 {
			edges["subnormal d²"] = true
		}
		switch bits := math.Float32bits(v); {
		case bits == 0xffc00000:
			edges["default NaN"] = true
		case math.IsInf(float64(v), 0):
			edges["±Inf"] = true
		case bits == 0x80000000:
			edges["-0"] = true
		}
	}
	row := func(w int) []float32 {
		r := make([]float32, w)
		for i := range r {
			if rng.Intn(3) == 0 {
				r[i] = denoiseSpecials[rng.Intn(len(denoiseSpecials))]
			} else {
				r[i] = rng.Float32()
			}
		}
		return r
	}
	for w := 3; w <= 40; w++ {
		lanes := w - 2 // columns 1..lanes run on the path under test
		if denoiseAVX {
			lanes &^= 7
		}
		for trial := 0; trial < 300; trial++ {
			up, mid, dn := row(w), row(w), row(w)
			if trial%2 == 0 { // a zero center lets the cutoff taps land exactly
				for x := 1; x < w-1; x += 2 {
					mid[x] = 0
				}
			}
			got := make([]float32, w)
			want := make([]float32, w)
			denoiseInteriorRow(up, mid, dn, got)
			denoiseInterior(up, mid, dn, want)
			for x := 1; x < w-1; x++ {
				g, s := got[x], want[x]
				if math.Float32bits(g) != math.Float32bits(s) && !(g != g && s != s) {
					t.Fatalf("w=%d trial %d x=%d: dispatched %#08x, pure Go %#08x\nup %v\nmid %v\ndn %v",
						w, trial, x, math.Float32bits(g), math.Float32bits(s), up, mid, dn)
				}
				if x > lanes {
					continue // the AVX kernel's scalar tail
				}
				for _, v := range []float32{up[x-1], up[x], up[x+1], mid[x-1], mid[x+1], dn[x-1], dn[x], dn[x+1]} {
					mark(v, mid[x])
				}
				if f := denoiseFused(up, mid, dn, x); s == s && f == f && f != s {
					edges["fused differs"] = true
				}
			}
		}
	}
	for _, e := range []string{"x=-8", "x below -8", "x above -8", "subnormal d²", "default NaN", "±Inf", "-0", "fused differs"} {
		if !edges[e] {
			t.Errorf("no tested lane reached edge %q", e)
		}
	}
}

// BenchmarkDenoise times the bilateral denoise of a rendered, demosaiced
// frame, serially, through the dispatched kernel and the pure-Go loop.
// A rendered frame is flat with few edges, as the loop sees it; uniform
// noise would make the scalar cutoff branch mispredict and overstate the
// kernel's gain.
func BenchmarkDenoise(b *testing.B) {
	tr := world.NineSectorTrack()
	for _, sz := range [][2]int{{192, 96}, {512, 256}} {
		w, h := sz[0], sz[1]
		rend := camera.NewRenderer(tr, camera.Scaled(w, h))
		img := demosaic(rend.RenderRAW(camera.PoseOnTrack(tr, 40, 0, 0), 1), nil, raster.FullSpans(w, h), 0, 1)
		out := raster.NewRGB(w, h)
		for _, path := range []struct {
			name string
			avx  bool
		}{{"dispatch", denoiseAVX}, {"pure-go", false}} {
			b.Run(fmt.Sprintf("%dx%d/%s", w, h, path.name), func(b *testing.B) {
				defer func(was bool) { denoiseAVX = was }(denoiseAVX)
				denoiseAVX = path.avx
				b.SetBytes(int64(3 * 4 * w * h))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					denoise(img, out, raster.FullSpans(img.W, img.H), 1)
				}
			})
		}
	}
}
