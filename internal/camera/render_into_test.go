package camera

import (
	"math"
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

// TestMosaicIntoReseedsDeterministically: the renderer-held RNG reused
// across MosaicInto calls must give the same noise as a fresh
// renderer's with the same seed — including when seeds repeat out of
// order.
func TestMosaicIntoReseedsDeterministically(t *testing.T) {
	track := dayTrack()
	cam := testCam()
	rend := NewRenderer(track, cam)
	scene := rend.RenderSceneInto(raster.NewRGB(rend.Cam.Width, rend.Cam.Height), PoseOnTrack(track, 8, 0, 0))
	raw := raster.NewBayer(cam.Width, cam.Height)
	for _, seed := range []int64{3, 99, 3} {
		golden := NewRenderer(track, cam).MosaicInto(raster.NewBayer(scene.W, scene.H), scene, seed)
		rend.MosaicInto(raw, scene, seed)
		for i := range golden.Pix {
			if raw.Pix[i] != golden.Pix[i] {
				t.Fatalf("seed %d: sample %d differs", seed, i)
			}
		}
	}
}
