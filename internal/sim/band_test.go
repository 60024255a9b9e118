package sim

import (
	"fmt"
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/isp"
	"hsas/internal/perception"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestBandMatchesFullFrame is the oracle of the loop's spans: rendering
// the RAW spans roiSpans gives for a ROI and running the ISP over its
// spans must give exactly the whole frame's bits on those pixels, and
// leave every other pixel as it was. The spans are each ROI's, on
// cameras from 64×32 to 512×256 and poses in every sector of the
// nine-sector track, into mosaics and RGB buffers dirtied with NaN,
// infinities and out-of-range values before every frame. Each ROI's
// spans are rendered at every worker count from 1 to 8, and the last
// mosaic goes through each configuration S0–S8 at a worker count that
// turns with the configuration, ROI and pose, so the 8 counts meet every
// configuration. The 512×256 camera takes two poses to bound the test's
// time.
func TestBandMatchesFullFrame(t *testing.T) {
	tr := world.NineSectorTrack()
	var poses []camera.VehiclePose
	cum := 0.0
	for i, seg := range tr.Segments {
		poses = append(poses, camera.PoseOnTrack(tr, cum+seg.Length/2, 0.3*float64(i%3-1), 0.02*float64(i%2)))
		cum += seg.Length
	}
	for _, cam := range []camera.Camera{camera.Scaled(64, 32), camera.Scaled(96, 48), camera.Scaled(192, 96), camera.Default()} {
		w, h := cam.Width, cam.Height
		det := perception.NewDetector(perception.NewGeometry(cam))
		rends := make([]*camera.Renderer, 8)
		for k := range rends {
			rends[k] = camera.NewRenderer(tr, cam)
			rends[k].Workers = k + 1
		}
		full := camera.NewRenderer(tr, cam)
		dirtyRaw, dirtyA, dirtyB := raster.NewBayer(w, h), raster.NewRGB(w, h), raster.NewRGB(w, h)
		dirtyBayer(dirtyRaw, 0)
		dirtyRGB(dirtyA, 1)
		dirtyRGB(dirtyB, 2)
		raw, a, b := raster.NewBayer(w, h), raster.NewRGB(w, h), raster.NewRGB(w, h)
		var spans, rawSpans []raster.Span
		stride := 1
		if w >= 512 {
			stride = 5
		}
		for pi := 0; pi < len(poses); pi += stride {
			vp, seed := poses[pi], int64(11+7919*pi)
			wantRaw := full.RenderRAW(vp, seed)
			wantRGB := make([]*raster.RGB, len(isp.Knobs))
			for ci, cfg := range isp.Knobs {
				wantRGB[ci] = cfg.Process(wantRaw)
			}
			for ri, roi := range perception.ROIs {
				where := fmt.Sprintf("%dx%d pose %d ROI %d", w, h, pi, roi.ID)
				spans, rawSpans = roiSpans(det, roi, cam, spans, rawSpans)
				for _, rend := range rends {
					copy(raw.Pix, dirtyRaw.Pix)
					rend.RenderRAWSpansInto(raw, vp, seed, rawSpans)
					checkSpans(t, fmt.Sprintf("%s RAW workers=%d", where, rend.Workers), w, rawSpans,
						[][2][]float32{{raw.Pix, wantRaw.Pix}}, [][]float32{dirtyRaw.Pix})
				}
				for ci, cfg := range isp.Knobs {
					workers := (ci+ri+pi)%8 + 1
					copyRGB(a, dirtyA)
					copyRGB(b, dirtyB)
					got := cfg.ProcessObservedInto(raw, a, b, spans, workers, nil)
					dirt := dirtyA
					if got == b {
						dirt = dirtyB
					}
					want := wantRGB[ci]
					checkSpans(t, fmt.Sprintf("%s %s workers=%d", where, cfg.ID, workers), w, spans,
						[][2][]float32{{got.R, want.R}, {got.G, want.G}, {got.B, want.B}},
						[][]float32{dirt.R, dirt.G, dirt.B})
				}
			}
		}
	}
}

// checkSpans fails unless each plane pair holds the same bits on the
// pixels of spans, rows of width w, and each plane still holds its dirt
// elsewhere.
func checkSpans(t *testing.T, where string, w int, spans []raster.Span, planes [][2][]float32, dirt [][]float32) {
	t.Helper()
	for p, pl := range planes {
		got, want := pl[0], pl[1]
		for i := range got {
			x, y := i%w, i/w
			ref, what := want[i], "the whole frame's"
			if x < spans[y].A || x >= spans[y].B {
				ref, what = dirt[p][i], "its old"
			}
			if math.Float32bits(got[i]) != math.Float32bits(ref) {
				t.Fatalf("%s: plane %d pixel (%d, %d) is %v, want %s %v", where, p, x, y, got[i], what, ref)
			}
		}
	}
}

func copyRGB(dst, src *raster.RGB) {
	copy(dst.R, src.R)
	copy(dst.G, src.G)
	copy(dst.B, src.B)
}

// dirtyRGB and dirtyBayer fill a buffer with values no frame holds: NaN,
// infinities and out-of-range values, varying with n.
func dirtyRGB(img *raster.RGB, n int) {
	vals := [...]float32{float32(math.NaN()), float32(math.Inf(1)), -7, 3.5}
	for i := range img.R {
		img.R[i], img.G[i], img.B[i] = vals[(i+n)%4], vals[(i+n+1)%4], vals[(i+n+2)%4]
	}
}

func dirtyBayer(b *raster.Bayer, n int) {
	vals := [...]float32{float32(math.NaN()), float32(math.Inf(-1)), -1, 2}
	for i := range b.Pix {
		b.Pix[i] = vals[(i+n)%4]
	}
}

// BenchmarkBand times one 192×96 frame's RAW render and S0 ISP over
// three kinds of area, at one and two workers, over poses spread across
// the nine-sector lap: the whole frame (area=frame), the rows of the
// union of the five ROIs' spans at full width (area=band, what the loop
// computed before it computed spans), and each ROI's spans as the loop
// computes them with oracle sensors (area=roiN). One op is one frame of
// one stage.
func BenchmarkBand(b *testing.B) {
	tr := world.NineSectorTrack()
	cam := camera.Scaled(192, 96)
	w, h := cam.Width, cam.Height
	det := perception.NewDetector(perception.NewGeometry(cam))
	poses := make([]camera.VehiclePose, 36)
	for i := range poses {
		poses[i] = camera.PoseOnTrack(tr, tr.Length()*(float64(i)+0.5)/float64(len(poses)), 0, 0)
	}
	type area struct {
		name            string
		spans, rawSpans []raster.Span
	}
	areas := []area{{"frame", raster.FullSpans(w, h), raster.FullSpans(w, h)}}
	band := area{name: "band", spans: make([]raster.Span, h)}
	var roiAreas []area
	for _, roi := range perception.ROIs {
		spans, rawSpans := roiSpans(det, roi, cam, nil, nil)
		roiAreas = append(roiAreas, area{fmt.Sprintf("roi%d", roi.ID), spans, rawSpans})
		lo, hi := raster.SpanRows(spans)
		for y := lo; y < hi; y++ {
			band.spans[y] = raster.Span{A: 0, B: w}
		}
	}
	band.rawSpans = raster.DilateSpans(nil, band.spans, 2, w)
	areas = append(append(areas, band), roiAreas...)
	s0, _ := isp.ByID("S0")
	for _, workers := range []int{1, 2} {
		for _, ar := range areas {
			rend := camera.NewRenderer(tr, cam)
			rend.Workers = workers
			raw := rend.RenderRAW(poses[0], 1)
			a, c := raster.NewRGB(w, h), raster.NewRGB(w, h)
			b.Run(fmt.Sprintf("render/workers=%d/area=%s", workers, ar.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rend.RenderRAWSpansInto(raw, poses[i%len(poses)], int64(i), ar.rawSpans)
				}
			})
			b.Run(fmt.Sprintf("isp-S0/workers=%d/area=%s", workers, ar.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s0.ProcessObservedInto(raw, a, c, ar.spans, workers, nil)
				}
			})
		}
	}
}
