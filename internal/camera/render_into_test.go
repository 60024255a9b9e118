package camera

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestRenderRAWIntoMatchesRenderRAW is the camera half of the golden
// byte-identity contract: a renderer reused across frames must
// reproduce a fresh renderer's RenderRAW bit for bit, for several
// worker counts, into a pre-dirtied recycled mosaic, and across
// successive frames with different seeds (the reseeded renderer-held
// RNG must match a freshly constructed one).
func TestRenderRAWIntoMatchesRenderRAW(t *testing.T) {
	track := dayTrack()
	cam := testCam()
	poses := []VehiclePose{
		PoseOnTrack(track, 5, 0, 0),
		PoseOnTrack(track, 12, 0.4, 0.03),
		PoseOnTrack(track, 20, -0.3, -0.02),
	}
	for _, workers := range []int{1, 3, 8} {
		rend := NewRenderer(track, cam)
		rend.Workers = workers
		raw := raster.NewBayer(cam.Width, cam.Height)
		for i := range raw.Pix {
			raw.Pix[i] = float32(math.Inf(1)) // dirty recycled contents
		}
		for fi, vp := range poses {
			seed := int64(1000 + fi*7919)
			fresh := NewRenderer(track, cam)
			fresh.Workers = 1
			golden := fresh.RenderRAW(vp, seed)
			rend.RenderRAWInto(raw, vp, seed)
			for i := range golden.Pix {
				if math.Float32bits(raw.Pix[i]) != math.Float32bits(golden.Pix[i]) {
					t.Fatalf("workers=%d frame=%d: sample %d differs: %v vs %v",
						workers, fi, i, raw.Pix[i], golden.Pix[i])
				}
			}
		}
	}
}

// TestRenderSceneIntoParallelMatchesSerial pins the RGB scene pass alone.
func TestRenderSceneIntoParallelMatchesSerial(t *testing.T) {
	track := world.SituationTrack(world.Situation{
		Layout: world.LeftTurn,
		Lane:   world.LaneMarking{Color: world.Yellow, Form: world.Dotted},
		Scene:  world.Night,
	})
	cam := testCam()
	vp := PoseOnTrack(track, world.LeadInLength+5, 0.2, 0.01)
	ser := NewRenderer(track, cam)
	ser.Workers = 1
	serial := ser.RenderSceneInto(raster.NewRGB(cam.Width, cam.Height), vp)
	par := NewRenderer(track, cam)
	par.Workers = 5
	out := raster.NewRGB(cam.Width, cam.Height)
	for i := range out.R {
		out.R[i], out.G[i], out.B[i] = -1, 2, float32(math.NaN())
	}
	par.RenderSceneInto(out, vp)
	for i := range serial.R {
		if out.R[i] != serial.R[i] || out.G[i] != serial.G[i] || out.B[i] != serial.B[i] {
			t.Fatalf("scene pixel %d differs", i)
		}
	}
}

// TestRenderRAWIntoReseedsDeterministically: the renderer-held RNG
// reused across RenderRAWInto calls must give the same frame as a fresh
// renderer's with the same seed — including when seeds repeat out of
// order — at one worker and at two.
func TestRenderRAWIntoReseedsDeterministically(t *testing.T) {
	track := dayTrack()
	cam := testCam()
	vp := PoseOnTrack(track, 8, 0, 0)
	for _, workers := range []int{1, 2} {
		rend := NewRenderer(track, cam)
		rend.Workers = workers
		raw := raster.NewBayer(cam.Width, cam.Height)
		for _, seed := range []int64{3, 99, 3} {
			fresh := NewRenderer(track, cam)
			fresh.Workers = 1
			golden := fresh.RenderRAW(vp, seed)
			rend.RenderRAWInto(raw, vp, seed)
			for i := range golden.Pix {
				if math.Float32bits(raw.Pix[i]) != math.Float32bits(golden.Pix[i]) {
					t.Fatalf("workers=%d seed %d: sample %d differs", workers, seed, i)
				}
			}
		}
	}
}

// TestNoiseStreamMatchesRand: the normals a frame draws are the first
// 2·W·H of rand.New(rand.NewSource(seed)), in order, for many seeds and
// both ways of drawing them.
func TestNoiseStreamMatchesRand(t *testing.T) {
	track := dayTrack()
	cam := Scaled(24, 12)
	vp := PoseOnTrack(track, 8, 0, 0)
	raw := raster.NewBayer(cam.Width, cam.Height)
	for _, workers := range []int{1, 2} {
		rend := NewRenderer(track, cam)
		rend.Workers = workers
		for k := range 200 {
			seed := int64(k*k)*1_000_003 - 5_000_000
			rend.RenderRAWInto(raw, vp, seed)
			if len(rend.noise) != 2*cam.Width*cam.Height {
				t.Fatalf("drew %d normals, want %d", len(rend.noise), 2*cam.Width*cam.Height)
			}
			want := rand.New(rand.NewSource(seed))
			for i, n := range rend.noise {
				if w := want.NormFloat64(); math.Float64bits(n) != math.Float64bits(w) {
					t.Fatalf("workers=%d seed %d: normal %d is %v, rand gives %v", workers, seed, i, n, w)
				}
			}
		}
	}
}

// unsharedRenderer builds a renderer whose ground and vignetting tables
// are its own, as every renderer built them before they were shared.
func unsharedRenderer(track *world.Track, cam Camera) *Renderer {
	g := newGroundTable(cam)
	return &Renderer{Track: track, Cam: cam, ground: &g, vig: newVignetting(cam), Workers: 1}
}

// TestSharedTablesMatchUnshared builds renderers of two cameras in
// turn, from several goroutines at once, so the one-entry table cache
// is replaced and read concurrently; every renderer must render the
// frame an unshared renderer renders. Run it under -race.
func TestSharedTablesMatchUnshared(t *testing.T) {
	track := dayTrack()
	vp := PoseOnTrack(track, 12, 0.3, 0.02)
	cams := []Camera{Scaled(64, 32), Scaled(96, 48)}
	want := make([]*raster.Bayer, len(cams))
	for c, cam := range cams {
		want[c] = unsharedRenderer(track, cam).RenderRAW(vp, 5)
	}
	const goroutines, rounds = 4, 12
	errs := make(chan string, goroutines*rounds)
	var wg sync.WaitGroup
	for gi := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds {
				c := (gi + k) % len(cams)
				rend := NewRenderer(track, cams[c])
				rend.Workers = 1 + k%2
				got := rend.RenderRAW(vp, 5)
				for i := range want[c].Pix {
					if math.Float32bits(got.Pix[i]) != math.Float32bits(want[c].Pix[i]) {
						errs <- fmt.Sprintf("goroutine %d round %d (%dx%d): sample %d differs from the unshared render",
							gi, k, cams[c].Width, cams[c].Height, i)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	a, b := NewRenderer(track, cams[0]), NewRenderer(track, cams[0])
	if a.ground != b.ground || &a.vig[0] != &b.vig[0] {
		t.Error("two renderers built in a row for one camera do not share its tables")
	}
}
