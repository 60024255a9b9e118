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

// TestBandMatchesFullFrame is the oracle of the loop's band: rendering
// RAW rows rawRowsFor(lo, hi) and running the ISP over rows [lo, hi)
// must give exactly the whole frame's bits in those rows, and leave every
// other row as it was. The bands are each ROI's source rows and their
// union, which the loop uses, on cameras from 64×32 to 512×256 and poses
// in every sector of the nine-sector track, into mosaics and RGB buffers
// dirtied with NaN, infinities and out-of-range values before every
// frame. Each band is rendered at every worker count from 1 to 8, and
// the last mosaic goes through each configuration S0–S8 at a worker
// count that turns with the configuration, band and pose, so the 8
// counts meet every configuration. The 512×256 camera takes two poses
// to bound the test's time.
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
		bands := [][2]int{}
		for _, roi := range perception.ROIs {
			lo, hi := det.SourceRows(w, h, roi)
			bands = append(bands, [2]int{lo, hi})
		}
		lo, hi := det.SourceRows(w, h, perception.ROIs...)
		bands = append(bands, [2]int{lo, hi})

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
			for bi, band := range bands {
				where := fmt.Sprintf("%dx%d pose %d band %d [%d, %d)", w, h, pi, bi, band[0], band[1])
				rawRows := rawRowsFor(band[0], band[1], h)
				for _, rend := range rends {
					copy(raw.Pix, dirtyRaw.Pix)
					rend.RenderRAWRowsInto(raw, vp, seed, rawRows[0], rawRows[1])
					checkRows(t, fmt.Sprintf("%s RAW workers=%d", where, rend.Workers), w, rawRows,
						[][2][]float32{{raw.Pix, wantRaw.Pix}}, [][]float32{dirtyRaw.Pix})
				}
				for ci, cfg := range isp.Knobs {
					workers := (ci+bi+pi)%8 + 1
					copyRGB(a, dirtyA)
					copyRGB(b, dirtyB)
					got := cfg.ProcessObservedInto(raw, a, b, band[0], band[1], workers, nil)
					dirt := dirtyA
					if got == b {
						dirt = dirtyB
					}
					want := wantRGB[ci]
					checkRows(t, fmt.Sprintf("%s %s workers=%d", where, cfg.ID, workers), w, band,
						[][2][]float32{{got.R, want.R}, {got.G, want.G}, {got.B, want.B}},
						[][]float32{dirt.R, dirt.G, dirt.B})
				}
			}
		}
	}
}

// checkRows fails unless each plane pair holds the same bits in rows
// [rows[0], rows[1]) of width w, and each plane still holds its dirt
// outside them.
func checkRows(t *testing.T, where string, w int, rows [2]int, planes [][2][]float32, dirt [][]float32) {
	t.Helper()
	for p, pl := range planes {
		got, want := pl[0], pl[1]
		for i := range got {
			y := i / w
			ref, what := want[i], "the whole frame's"
			if y < rows[0] || y >= rows[1] {
				ref, what = dirt[p][i], "its old"
			}
			if math.Float32bits(got[i]) != math.Float32bits(ref) {
				t.Fatalf("%s: plane %d pixel (%d, %d) is %v, want %s %v", where, p, i%w, y, got[i], what, ref)
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

// BenchmarkBand times one 192×96 frame's RAW render and S0 ISP over the
// whole frame and over the band the loop computes with oracle sensors,
// at one and two workers, over poses spread across the nine-sector lap.
// One op is one frame of one stage.
func BenchmarkBand(b *testing.B) {
	tr := world.NineSectorTrack()
	cam := camera.Scaled(192, 96)
	w, h := cam.Width, cam.Height
	lo, hi := perception.NewDetector(perception.NewGeometry(cam)).SourceRows(w, h, perception.ROIs...)
	poses := make([]camera.VehiclePose, 36)
	for i := range poses {
		poses[i] = camera.PoseOnTrack(tr, tr.Length()*(float64(i)+0.5)/float64(len(poses)), 0, 0)
	}
	s0, _ := isp.ByID("S0")
	for _, workers := range []int{1, 2} {
		for _, band := range []bool{false, true} {
			rows := [2]int{0, h}
			if band {
				rows = [2]int{lo, hi}
			}
			rawRows := rawRowsFor(rows[0], rows[1], h)
			rend := camera.NewRenderer(tr, cam)
			rend.Workers = workers
			raw := rend.RenderRAW(poses[0], 1)
			a, c := raster.NewRGB(w, h), raster.NewRGB(w, h)
			b.Run(fmt.Sprintf("render/workers=%d/band=%v", workers, band), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rend.RenderRAWRowsInto(raw, poses[i%len(poses)], int64(i), rawRows[0], rawRows[1])
				}
			})
			b.Run(fmt.Sprintf("isp-S0/workers=%d/band=%v", workers, band), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s0.ProcessObservedInto(raw, a, c, rows[0], rows[1], workers, nil)
				}
			})
		}
	}
}
