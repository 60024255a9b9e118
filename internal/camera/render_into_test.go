package camera

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"hsas/internal/mat"
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
		rend := teamRenderer(t, track, cam, workers)
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
	par.Workers = 5 // a team started for each frame
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
		rend := teamRenderer(t, track, cam, workers)
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
		rend := teamRenderer(t, track, cam, workers)
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

// teamRenderer returns a renderer of track through cam on a team of
// workers, which the test's cleanup closes.
func teamRenderer(t testing.TB, track *world.Track, cam Camera, workers int) *Renderer {
	rend := NewRenderer(track, cam)
	rend.Team, rend.Workers = mat.NewTeam(workers), workers
	t.Cleanup(rend.Team.Close)
	return rend
}

// TestDrawAheadMatchesInline renders frames with seeds 0 to 200 on
// teams of one to four workers, drawing each next frame's noise ahead
// as the loop does, and compares every frame with a serial renderer
// that draws its own. The sequence skips a frame now and then (a
// dropped frame, whose drawn seed the next render does not take) and
// sometimes draws fewer rows ahead than the next frame's spans reach;
// both renders must then draw inline. Every frame's normals must be
// the seed's stream and its RAW the serial one's. At the end a draw is
// left in flight when the team closes, as at the end of a run, and no
// goroutine may outlive it.
func TestDrawAheadMatchesInline(t *testing.T) {
	track := dayTrack()
	cam := Scaled(24, 12)
	w, h := cam.Width, cam.Height
	vp := PoseOnTrack(track, 8, 0.1, 0.01)
	half := make([]raster.Span, h)
	for y := 2; y < h/2+2; y++ {
		half[y] = raster.Span{A: 3, B: w - 5}
	}
	before := runtime.NumGoroutine()
	for workers := 1; workers <= 4; workers++ {
		rend := NewRenderer(track, cam)
		rend.Team, rend.Workers = mat.NewTeam(workers), workers
		serial := NewRenderer(track, cam)
		serial.Workers = 1
		raw, want := raster.NewBayer(w, h), raster.NewBayer(w, h)
		for seed := int64(0); seed <= 200; seed++ {
			if seed%9 == 4 {
				continue // dropped: the seed drawn ahead for it goes unused
			}
			spans := raster.FullSpans(w, h)
			if seed%3 == 0 {
				spans = half
			}
			serial.RenderRAWSpansInto(want, vp, seed, spans)
			rend.RenderRAWSpansInto(raw, vp, seed, spans)
			_, hi := raster.SpanRows(spans)
			stream := rand.New(rand.NewSource(seed))
			for i, n := range rend.noise[:2*w*hi] {
				if s := stream.NormFloat64(); math.Float64bits(n) != math.Float64bits(s) {
					t.Fatalf("workers=%d seed %d: normal %d is %v, the stream's is %v", workers, seed, i, n, s)
				}
			}
			for y, s := range spans {
				for i := y*w + s.A; i < y*w+s.B; i++ {
					if math.Float32bits(raw.Pix[i]) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("workers=%d seed %d: sample %d is %v, inline draw gives %v", workers, seed, i, raw.Pix[i], want.Pix[i])
					}
				}
			}
			rows := h
			if seed%5 == 1 {
				rows = h / 3 // short of the next frame's rows
			}
			rend.DrawAhead(seed+1, rows)
		}
		rend.DrawAhead(1000, h)
		rend.Team.Close()
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the teams closed, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
