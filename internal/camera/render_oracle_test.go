package camera

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsas/internal/fault"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// oracleRenderer is the per-pixel render the ground table and the track
// view replaced, kept as the oracle of TestRenderMatchesOracle. It holds
// three full-frame ray tables, rotates every pixel's ray into the world,
// intersects it with the ground per pixel, and locates each ground point
// with Track.Locate and the SurfaceAt of a view holding the whole track,
// whose segment search starts at the track's last segment. It renders
// serially.
type oracleRenderer struct {
	r                *Renderer // track, camera, occluder, illumination
	whole            world.View
	rayX, rayY, rayZ []float64
	vig              []float32
}

func newOracleRenderer(r *Renderer) *oracleRenderer {
	cam := r.Cam
	o := &oracleRenderer{r: r, whole: r.Track.View(0, math.Inf(1), math.Inf(1))}
	w, h := cam.Width, cam.Height
	fx := float64(w) / 2 / math.Tan(cam.FOVDeg*math.Pi/360)
	cx, cy := float64(w)/2-0.5, float64(h)/2-0.5
	o.rayX = make([]float64, w*h)
	o.rayY = make([]float64, w*h)
	o.rayZ = make([]float64, w*h)
	o.vig = make([]float32, w*h)
	maxR2 := cx*cx + cy*cy
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			i := v*w + u
			dx := (float64(u) - cx) / fx
			dy := (float64(v) - cy) / fx
			dz := 1.0
			n := math.Sqrt(dx*dx + dy*dy + dz*dz)
			o.rayX[i], o.rayY[i], o.rayZ[i] = dx/n, dy/n, dz/n
			r2 := ((float64(u)-cx)*(float64(u)-cx) + (float64(v)-cy)*(float64(v)-cy)) / maxR2
			o.vig[i] = float32(1 - Vignetting*r2)
		}
	}
	return o
}

func (o *oracleRenderer) renderScene(vp VehiclePose) *raster.RGB {
	r := o.r
	out := raster.NewRGB(r.Cam.Width, r.Cam.Height)
	scene := r.Track.SituationAt(vp.S).Scene
	sky := skyColor(scene)
	for i := range out.R {
		switch c, dist, gx, gy := o.groundPoint(i, vp); c {
		case pixelSky:
			out.R[i], out.G[i], out.B[i] = sky[0], sky[1], sky[2]
		case pixelHaze:
			out.R[i], out.G[i], out.B[i] = sky[0]*0.9, sky[1]*0.9, sky[2]*0.9
		default:
			rad := o.shadeGround(gx, gy, vp, scene, dist)
			out.R[i], out.G[i], out.B[i] = rad[0], rad[1], rad[2]
		}
	}
	return out
}

// groundPoint is the oracle's per-pixel ray cast: pixel i's class and,
// for a ground pixel, its distance and ground point.
func (o *oracleRenderer) groundPoint(i int, vp VehiclePose) (c pixelClass, t, gx, gy float64) {
	r := o.r
	sinPsi, cosPsi := math.Sin(vp.Psi), math.Cos(vp.Psi)
	pitch := r.Cam.PitchDeg * math.Pi / 180
	sinP, cosP := math.Sin(pitch), math.Cos(pitch)
	fwd := [3]float64{cosP * cosPsi, cosP * sinPsi, -sinP}
	right := [3]float64{sinPsi, -cosPsi, 0}
	down := [3]float64{-sinP * cosPsi, -sinP * sinPsi, -cosP}
	dx := o.rayX[i]*right[0] + o.rayY[i]*down[0] + o.rayZ[i]*fwd[0]
	dy := o.rayX[i]*right[1] + o.rayY[i]*down[1] + o.rayZ[i]*fwd[1]
	dz := o.rayX[i]*right[2] + o.rayY[i]*down[2] + o.rayZ[i]*fwd[2]
	if dz >= -1e-6 {
		return pixelSky, 0, 0, 0
	}
	t = r.Cam.MountHeight / -dz
	if t > r.Cam.MaxDist {
		return pixelHaze, t, 0, 0
	}
	return pixelGround, t, vp.X + t*dx, vp.Y + t*dy
}

func (o *oracleRenderer) shadeGround(gx, gy float64, vp VehiclePose, scene world.Scene, dist float64) [3]float32 {
	r := o.r
	s, lat, ok := r.Track.Locate(gx, gy, vp.S, 20, r.Cam.MaxDist+10, world.RoadHalfWidth+6)
	var alb [3]float64
	if ok {
		sf := o.whole.SurfaceAt(s, lat)
		if sf.Kind == world.SurfaceMarking && r.Occlude != nil && r.Occlude(s, lat) {
			sf = world.Surface{Kind: world.SurfaceAsphalt}
		}
		alb = albedo(sf, gx, gy)
	} else {
		alb = albedo(world.Surface{Kind: world.SurfaceOffRoad}, gx, gy)
	}
	il := r.illumination(gx, gy, s, lat, ok, vp, scene, dist)
	return [3]float32{
		float32(alb[0] * il[0]),
		float32(alb[1] * il[1]),
		float32(alb[2] * il[2]),
	}
}

// mosaic is the serial sensor model RenderRAWInto's row split replaced,
// kept as the oracle of its RAW frames: the oracle's vignetting table, a
// fresh noise stream drawn two normals per pixel in raster order as the
// loop goes, and the per-pixel arithmetic of sensorRows.
func (o *oracleRenderer) mosaic(scene *raster.RGB, seed int64) *raster.Bayer {
	w, h := scene.W, scene.H
	raw := raster.NewBayer(w, h)
	rng := rand.New(rand.NewSource(seed))
	m := &SensorMatrix
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			sr, sg, sb := float64(scene.R[i]), float64(scene.G[i]), float64(scene.B[i])
			var v float64
			switch raster.ColorAt(x, y) {
			case raster.CFARed:
				v = m[0][0]*sr + m[0][1]*sg + m[0][2]*sb
			case raster.CFAGreen:
				v = m[1][0]*sr + m[1][1]*sg + m[1][2]*sb
			default:
				v = m[2][0]*sr + m[2][1]*sg + m[2][2]*sb
			}
			v *= float64(o.vig[i])
			v += math.Sqrt(math.Max(v, 0))*ShotNoise*rng.NormFloat64() + ReadNoise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			v = math.Round(v*QuantLevel) / QuantLevel
			raw.Pix[i] = float32(v)
		}
	}
	return raw
}

// fiveSceneTrack strings one segment of every scene together, with
// straights and turns of both hands and every marking form, so the
// oracle comparison crosses joins between different scenes and layouts.
func fiveSceneTrack() *world.Track {
	k := 1 / world.TurnRadius
	seg := func(length, curv float64, form world.LaneForm, color world.LaneColor, scene world.Scene, layout world.RoadLayout) world.Segment {
		return world.Segment{
			Length:    length,
			Curvature: curv,
			Situation: world.Situation{Layout: layout, Lane: world.LaneMarking{Color: color, Form: form}, Scene: scene},
			RightLane: world.LaneMarking{Color: world.White, Form: world.Dotted},
		}
	}
	return world.NewTrack([]world.Segment{
		seg(40, 0, world.Continuous, world.White, world.Day, world.Straight),
		seg(world.TurnArcLength, -k, world.DoubleContinuous, world.Yellow, world.Dawn, world.RightTurn),
		seg(40, 0, world.Dotted, world.Yellow, world.Dusk, world.Straight),
		seg(world.TurnArcLength, k, world.Dotted, world.White, world.Night, world.LeftTurn),
		seg(40, 0, world.DoubleContinuous, world.White, world.Dark, world.Straight),
	}, 0)
}

// oraclePoses returns poses in the middle of every segment, on and
// around every segment join, and near and past both track ends, with
// lateral and heading offsets.
func oraclePoses(tr *world.Track) []VehiclePose {
	var ps []VehiclePose
	cum := 0.0
	for i, seg := range tr.Segments {
		if i > 0 {
			ps = append(ps,
				PoseOnTrack(tr, cum, 0, 0),
				PoseOnTrack(tr, cum-2.5, 0.4, 0.03),
				PoseOnTrack(tr, cum+2.5, -0.4, -0.03))
		}
		ps = append(ps, PoseOnTrack(tr, cum+seg.Length/2, 0.3, 0.02))
		cum += seg.Length
	}
	return append(ps,
		PoseOnTrack(tr, -2, 0, 0),
		PoseOnTrack(tr, 0, 0.2, -0.05),
		PoseOnTrack(tr, 0.5, -0.6, 0.1),
		PoseOnTrack(tr, cum-0.5, 0.5, 0.04),
		PoseOnTrack(tr, cum, 0, 0),
		PoseOnTrack(tr, cum+3, -0.2, -0.02))
}

// oracleSweep runs check on every frame of the oracle sweep: both
// tracks (five scenes, straights, turns, sector joins and both track
// ends), four camera sizes and the occluder off and on, with one renderer
// per worker count and the oracle's scene of the pose. The 512×256
// camera takes every fifth pose (every eighth with -short) to bound the
// tests' time. It fails unless the poses covered all five scenes.
func oracleSweep(t *testing.T, workerCounts []int,
	check func(where string, pi int, vp VehiclePose, rends []*Renderer, oracle *oracleRenderer, wantScene *raster.RGB)) {
	t.Helper()
	patchy := func(s, lat float64) bool {
		return fault.MarkingOccluded(s, lat, 0.5, fault.OcclusionSeed(3))
	}
	cams := []Camera{Scaled(64, 32), Scaled(96, 48), Scaled(192, 96), Default()}
	tracks := map[string]*world.Track{"five-scene": fiveSceneTrack(), "nine-sector": world.NineSectorTrack()}
	scenes := map[world.Scene]bool{}
	for name, tr := range tracks {
		poses := oraclePoses(tr)
		for _, vp := range poses {
			scenes[tr.SituationAt(vp.S).Scene] = true
		}
		for _, cam := range cams {
			stride := 1
			if cam.Width >= 512 {
				stride = 5
				if testing.Short() {
					stride = 8
				}
			}
			for _, occlude := range []func(s, lat float64) bool{nil, patchy} {
				rends := make([]*Renderer, len(workerCounts))
				for k, n := range workerCounts {
					rends[k] = NewRenderer(tr, cam)
					rends[k].Workers, rends[k].Occlude = n, occlude
				}
				oracle := newOracleRenderer(rends[0])
				for pi := 0; pi < len(poses); pi += stride {
					vp := poses[pi]
					where := fmt.Sprintf("%s %dx%d occlude=%v pose %d (s=%.3f)",
						name, cam.Width, cam.Height, occlude != nil, pi, vp.S)
					check(where, pi, vp, rends, oracle, oracle.renderScene(vp))
				}
			}
		}
	}
	if len(scenes) != 5 {
		t.Fatalf("poses covered scenes %v, want all five", scenes)
	}
}

// TestRenderMatchesOracle compares the scene radiance bit for bit with
// the per-pixel oracle over the oracle sweep at worker counts 1, 2, 3
// and 8, rendering into buffers dirtied before every frame.
func TestRenderMatchesOracle(t *testing.T) {
	var scene *raster.RGB
	oracleSweep(t, []int{1, 2, 3, 8}, func(where string, pi int, vp VehiclePose, rends []*Renderer, _ *oracleRenderer, want *raster.RGB) {
		if scene == nil || scene.W != want.W || scene.H != want.H {
			scene = raster.NewRGB(want.W, want.H)
		}
		for k, rend := range rends {
			dirtyRGB(scene, pi+k)
			rend.RenderSceneInto(scene, vp)
			checkSceneBits(t, fmt.Sprintf("%s workers=%d", where, rend.Workers), scene, want)
		}
	})
}

// TestRenderRAWMatchesOracle compares every RAW frame bit for bit with
// the serial mosaic applied to the oracle's scene, over the oracle sweep
// at every worker count from 1 to 8, rendering into mosaics dirtied
// before every frame. The renderers are reused from pose to pose with a
// new seed each, as the loop uses them.
func TestRenderRAWMatchesOracle(t *testing.T) {
	var raw *raster.Bayer
	oracleSweep(t, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(where string, pi int, vp VehiclePose, rends []*Renderer, oracle *oracleRenderer, wantScene *raster.RGB) {
		seed := int64(17 + 7919*pi)
		want := oracle.mosaic(wantScene, seed)
		if raw == nil || raw.W != want.W || raw.H != want.H {
			raw = raster.NewBayer(want.W, want.H)
		}
		for k, rend := range rends {
			dirtyBayer(raw, pi+k)
			if got := rend.RenderRAWInto(raw, vp, seed); got != raw {
				t.Fatalf("%s workers=%d: RenderRAWInto did not return its buffer", where, rend.Workers)
			}
			checkRAWBits(t, fmt.Sprintf("%s workers=%d", where, rend.Workers), raw, want)
		}
	})
}

// TestGroundTableMatchesOracle checks the ground table and the per-frame
// axes below the rendered bits, which absorb most one-ulp geometry
// changes: every pixel's class, ground distance and ground point must
// equal the oracle's per-pixel ray cast bit for bit, at every camera
// size and pose, headings on all four quadrants included.
func TestGroundTableMatchesOracle(t *testing.T) {
	tr := fiveSceneTrack()
	poses := oraclePoses(tr)
	for _, psi := range []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, 2.5, -2.5} {
		poses = append(poses, VehiclePose{X: 3, Y: -4, Psi: psi, S: 10})
	}
	for _, cam := range []Camera{Scaled(64, 32), Scaled(96, 48), Scaled(192, 96), Default(), Scaled(40, 7)} {
		rend := NewRenderer(tr, cam)
		oracle := newOracleRenderer(rend)
		g := rend.ground
		off := g.skyRows * cam.Width
		for pi, vp := range poses {
			ax := g.axes(vp.Psi)
			for i := 0; i < cam.Width*cam.Height; i++ {
				wc, wt, wx, wy := oracle.groundPoint(i, vp)
				c, tt, gx, gy := pixelSky, 0.0, 0.0, 0.0
				if i >= off {
					c = g.class[i-off]
					if c != pixelSky {
						tt = g.ray[i-off].t
					}
					if c == pixelGround {
						gx, gy = g.ray[i-off].hit(vp.X, vp.Y, ax)
					}
				}
				if c != wc || math.Float64bits(tt) != math.Float64bits(wt) ||
					math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gy) != math.Float64bits(wy) {
					t.Fatalf("%dx%d pose %d pixel %d: class %d t %v at (%v, %v), oracle class %d t %v at (%v, %v)",
						cam.Width, cam.Height, pi, i, c, tt, gx, gy, wc, wt, wx, wy)
				}
				if c == pixelGround && i/cam.Width < g.groundRow {
					t.Fatalf("%dx%d: ground pixel %d above groundRow %d", cam.Width, cam.Height, i, g.groundRow)
				}
			}
		}
	}
}

// TestRenderSceneMatchesOracle renders every oracle pose of the
// five-scene track through one renderer's RenderSceneInto, in pose
// order, and checks that it returns its buffer holding the oracle's
// scene bits.
func TestRenderSceneMatchesOracle(t *testing.T) {
	tr := fiveSceneTrack()
	rend := NewRenderer(tr, Scaled(96, 48))
	rend.Workers = 2
	oracle := newOracleRenderer(rend)
	for pi, vp := range oraclePoses(tr) {
		out := raster.NewRGB(96, 48)
		if got := rend.RenderSceneInto(out, vp); got != out {
			t.Fatalf("pose %d: RenderSceneInto did not return its buffer", pi)
		}
		checkSceneBits(t, fmt.Sprintf("pose %d", pi), out, oracle.renderScene(vp))
	}
}

func checkRAWBits(t *testing.T, where string, got, want *raster.Bayer) {
	t.Helper()
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: RAW sample %d (x %d, y %d) is %v, oracle %v",
				where, i, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

func checkSceneBits(t *testing.T, where string, got, want *raster.RGB) {
	t.Helper()
	for i := range want.R {
		if math.Float32bits(got.R[i]) != math.Float32bits(want.R[i]) ||
			math.Float32bits(got.G[i]) != math.Float32bits(want.G[i]) ||
			math.Float32bits(got.B[i]) != math.Float32bits(want.B[i]) {
			t.Fatalf("%s: scene pixel %d (x %d, y %d) is (%v, %v, %v), oracle (%v, %v, %v)",
				where, i, i%want.W, i/want.W, got.R[i], got.G[i], got.B[i], want.R[i], want.G[i], want.B[i])
		}
	}
}

// dirtyRGB and dirtyBayer fill a recycled buffer with values no render
// writes: NaN, infinities and out-of-range radiance, varying with n.
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

// TestRenderRAWRowsMatchesFullFrame renders span sets that the loop's
// ROIs never take: whole-width row ranges inside the all-sky rows,
// across the first ground row, at both frame borders, single rows and
// empty ones, and column spans at either frame border, of one pixel, or
// moving from row to row with rows left out. Each must hold the whole
// frame's bits on its pixels and leave every other pixel of a dirtied
// mosaic as it was, at worker counts 1, 2, 3 and 8, with renderers
// reused from set to set and a new seed for each set, so normals left
// from the previous frame cannot pass for this one's.
func TestRenderRAWRowsMatchesFullFrame(t *testing.T) {
	tr := fiveSceneTrack()
	poses := oraclePoses(tr)
	for _, cam := range []Camera{Scaled(64, 32), Scaled(192, 96), Scaled(40, 8)} {
		w, h := cam.Width, cam.Height
		full := NewRenderer(tr, cam)
		g := full.ground
		rows := func(lo, hi, a, b int) []raster.Span {
			spans := make([]raster.Span, h)
			for y := lo; y < hi; y++ {
				spans[y] = raster.Span{A: a, B: b}
			}
			return spans
		}
		var sets [][]raster.Span
		for _, r := range [][2]int{{0, h}, {0, 1}, {h - 1, h}, {0, 0}, {h, h}, {h / 2, h / 2},
			{0, g.skyRows}, {max(g.skyRows-1, 0), min(g.groundRow+2, h)}, {g.groundRow, h},
			{max(g.groundRow-3, 0), g.groundRow}, {h / 3, 2 * h / 3}, {1, h - 1}} {
			sets = append(sets, rows(r[0], r[1], 0, w))
		}
		for _, c := range [][2]int{{0, 1}, {w - 1, w}, {w / 3, 2 * w / 3}, {1, w}, {w / 2, w / 2}} {
			sets = append(sets, rows(0, h, c[0], c[1]), rows(h/3, 2*h/3, c[0], c[1]))
		}
		moving := make([]raster.Span, h)
		for y := range moving {
			if y%5 != 2 {
				a := (y * 7) % w
				moving[y] = raster.Span{A: a, B: min(a+1+(y*3)%9, w)}
			}
		}
		sets = append(sets, moving)
		rends := map[int]*Renderer{}
		for _, n := range []int{1, 2, 3, 8} {
			rends[n] = NewRenderer(tr, cam)
			rends[n].Workers = n
		}
		dirt := raster.NewBayer(w, h)
		dirtyBayer(dirt, 0)
		raw := raster.NewBayer(w, h)
		for pi, vp := range poses {
			for si, spans := range sets {
				seed := int64(5 + 7919*pi + 31*si)
				want := full.RenderRAW(vp, seed)
				for _, n := range []int{1, 2, 3, 8} {
					copy(raw.Pix, dirt.Pix)
					rends[n].RenderRAWSpansInto(raw, vp, seed, spans)
					for i := range raw.Pix {
						ref := want.Pix[i]
						if s := spans[i/w]; i%w < s.A || i%w >= s.B {
							ref = dirt.Pix[i]
						}
						if math.Float32bits(raw.Pix[i]) != math.Float32bits(ref) {
							t.Fatalf("%dx%d pose %d spans %d workers=%d: sample (%d, %d) is %v, want %v",
								w, h, pi, si, n, i%w, i/w, raw.Pix[i], ref)
						}
					}
				}
			}
		}
	}
}
