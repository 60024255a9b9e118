package isp

import (
	"fmt"
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestToneCurveFastExhaustive checks toneRow against the reference
// toneCurve on every float32 of the fast path's domain [toneToe, 1]
// (70.5M values; every 97th plus the boundaries under -race) and on the
// inputs that must fall back.
func TestToneCurveFastExhaustive(t *testing.T) {
	lo, hi := math.Float32bits(toneToe), math.Float32bits(1)
	step := uint32(1)
	if raceEnabled {
		step = 97
	}
	const chunk = 1 << 12
	row := make([]float32, 0, chunk)
	var checked int
	flush := func() {
		in := append([]float32(nil), row...)
		want := make([]float32, len(row))
		for i, v := range row {
			want[i] = toneCurve(v)
		}
		toneRow(row)
		for i := range row {
			if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
				t.Fatalf("input %#08x: toneRow = %#08x, toneCurve = %#08x",
					math.Float32bits(in[i]), math.Float32bits(row[i]), math.Float32bits(want[i]))
			}
		}
		checked += len(row)
		row = row[:0]
	}
	for b := lo; b <= hi; b += step {
		row = append(row, math.Float32frombits(b))
		if len(row) == chunk {
			flush()
		}
	}
	row = append(row, math.Float32frombits(lo), math.Float32frombits(lo+1), math.Float32frombits(hi-1), 1)
	flush()
	t.Logf("checked %d inputs", checked)
}

// TestToneCurveFallbackInputs pins the inputs outside the fast path's
// domain, which toneRow must hand to toneCurve unchanged.
func TestToneCurveFallbackInputs(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	toeBits := math.Float32bits(toneToe)
	for _, v := range []float32{
		nan, inf, -inf, 0, float32(math.Copysign(0, -1)), -1e-30, -0.5, -1e9,
		math.Float32frombits(1), toneToe / 2, math.Float32frombits(toeBits - 1), toneToe,
		math.Float32frombits(toeBits + 1), math.Nextafter32(1, 0), 1, math.Nextafter32(1, 2),
		1.0001, 1.7, 64, 1e9, math.MaxFloat32,
	} {
		row := []float32{v}
		toneRow(row)
		want := toneCurve(v)
		if math.Float32bits(row[0]) != math.Float32bits(want) && !(row[0] != row[0] && want != want) {
			t.Errorf("toneRow(%v) = %v, toneCurve = %v", v, row[0], want)
		}
	}
	row := []float32{nan}
	toneRow(row)
	if row[0] == row[0] {
		t.Errorf("toneRow(NaN) = %v, want NaN as toneCurve gives", row[0])
	}
}

// demosaicRowsOracle and denoiseRowsOracle are the per-pixel kernels the
// interior fast paths replaced, kept as the reference they must match
// bit for bit.
func demosaicRowsOracle(raw *raster.Bayer, out *raster.RGB, y0, y1 int) {
	w := raw.W
	for y := y0; y < y1; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			switch raster.ColorAt(x, y) {
			case raster.CFARed:
				out.R[i] = raw.At(x, y)
				out.G[i] = avg4(raw.At(x-1, y), raw.At(x+1, y), raw.At(x, y-1), raw.At(x, y+1))
				out.B[i] = avg4(raw.At(x-1, y-1), raw.At(x+1, y-1), raw.At(x-1, y+1), raw.At(x+1, y+1))
			case raster.CFABlue:
				out.B[i] = raw.At(x, y)
				out.G[i] = avg4(raw.At(x-1, y), raw.At(x+1, y), raw.At(x, y-1), raw.At(x, y+1))
				out.R[i] = avg4(raw.At(x-1, y-1), raw.At(x+1, y-1), raw.At(x-1, y+1), raw.At(x+1, y+1))
			default:
				out.G[i] = raw.At(x, y)
				if y%2 == 0 {
					out.R[i] = avg2(raw.At(x-1, y), raw.At(x+1, y))
					out.B[i] = avg2(raw.At(x, y-1), raw.At(x, y+1))
				} else {
					out.B[i] = avg2(raw.At(x-1, y), raw.At(x+1, y))
					out.R[i] = avg2(raw.At(x, y-1), raw.At(x, y+1))
				}
			}
		}
	}
}

func denoiseRowsOracle(img, out *raster.RGB, y0, y1 int) {
	w, h := img.W, img.H
	spatial := [3]float32{0.60, 1.0, 0.60}
	inv2s2 := float32(1 / (2 * denoiseRangeSigma * denoiseRangeSigma))
	planes := [3][2][]float32{{img.R, out.R}, {img.G, out.G}, {img.B, out.B}}
	for _, p := range planes {
		src, dst := p[0], p[1]
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				c := src[y*w+x]
				var sum, wsum float32
				for dy := -1; dy <= 1; dy++ {
					yy := y + dy
					if yy < 0 || yy >= h {
						continue
					}
					for dx := -1; dx <= 1; dx++ {
						xx := x + dx
						if xx < 0 || xx >= w {
							continue
						}
						v := src[yy*w+xx]
						d := v - c
						wt := spatial[dy+1] * spatial[dx+1] * expFast(-d*d*inv2s2)
						sum += wt * v
						wsum += wt
					}
				}
				dst[y*w+x] = sum / wsum
			}
		}
	}
}

// oracleMosaics returns rendered 192×96 frames along the nine-sector
// track (day and night scenes, straights and turns) and synthetic
// mosaics of odd and degenerate sizes.
func oracleMosaics() map[string]*raster.Bayer {
	tr := world.NineSectorTrack()
	rend := camera.NewRenderer(tr, camera.Scaled(192, 96))
	out := map[string]*raster.Bayer{}
	for i, s := range []float64{5, 40, 90, 150, 210, 270, 330} {
		if s >= tr.Length() {
			break
		}
		vp := camera.PoseOnTrack(tr, s, 0.3*float64(i%3-1), 0.02*float64(i%2))
		out[fmt.Sprintf("render_s%.0f", s)] = rend.RenderRAW(vp, int64(100+i))
	}
	// NewBayer insists on even sizes; the kernels do not, so odd sizes
	// are cut from a larger synthetic mosaic.
	src := syntheticRAW(66, 34)
	for _, sz := range [][2]int{{1, 1}, {2, 3}, {3, 3}, {5, 4}, {7, 2}, {4, 7}, {65, 33}, {66, 34}} {
		w, h := sz[0], sz[1]
		raw := &raster.Bayer{W: w, H: h, Pix: make([]float32, w*h)}
		for y := 0; y < h; y++ {
			copy(raw.Pix[y*w:(y+1)*w], src.Pix[y*src.W:])
		}
		out[fmt.Sprintf("synthetic_%dx%d", w, h)] = raw
	}
	return out
}

func assertSameRGB(t *testing.T, what string, got, want *raster.RGB) {
	t.Helper()
	for c, pl := range [3][2][]float32{{got.R, want.R}, {got.G, want.G}, {got.B, want.B}} {
		for i := range pl[1] {
			if math.Float32bits(pl[0][i]) != math.Float32bits(pl[1][i]) {
				t.Fatalf("%s: channel %d pixel (%d,%d) = %v, oracle %v",
					what, c, i%want.W, i/want.W, pl[0][i], pl[1][i])
			}
		}
	}
}

// TestDemosaicDenoiseMatchOracle checks the interior fast paths of
// demosaic and denoise against the per-pixel oracles on rendered frames
// and odd sizes for several worker counts.
func TestDemosaicDenoiseMatchOracle(t *testing.T) {
	for name, raw := range oracleMosaics() {
		w, h := raw.W, raw.H
		dmWant := raster.NewRGB(w, h)
		demosaicRowsOracle(raw, dmWant, 0, h)
		dnWant := raster.NewRGB(w, h)
		denoiseRowsOracle(dmWant, dnWant, 0, h)
		for _, workers := range []int{1, 2, 3} {
			what := fmt.Sprintf("%s workers=%d", name, workers)
			dm := demosaic(raw, dirtyRGB(w, h), raster.FullSpans(w, h), 0, workers)
			assertSameRGB(t, "demosaic "+what, dm, dmWant)
			dn := denoise(dmWant, dirtyRGB(w, h), raster.FullSpans(dmWant.W, dmWant.H), workers)
			assertSameRGB(t, "denoise "+what, dn, dnWant)
		}
	}
}
