// Package camera implements the synthetic RAW camera that substitutes the
// Webots-rendered camera of the paper's HiL setup.
//
// For every pixel a ray is cast from a pinhole camera mounted on the
// vehicle, intersected with the ground plane, and shaded from the track's
// surface classification (asphalt, painted marking, shoulder, off-road)
// under a scene-dependent illumination model (sun, dawn/dusk tint, street
// lights at night, headlights at night/dark). The linear scene radiance is
// then pushed through a sensor model — spectral crosstalk matrix,
// vignetting, shot + read noise, 10-bit quantization — and sampled through
// an RGGB color filter array, producing the RAW Bayer frames the ISP
// pipeline (internal/isp) consumes.
//
// The model is deliberately physical enough that every ISP stage has a
// measurable effect: demosaic reconstructs the CFA, denoise matters at low
// SNR (night/dark), the color map inverts the crosstalk (yellow vs white
// separation), the gamut map tames clipped highlights (street lights,
// headlight hot spot), and the tone map lifts shadows before the
// perception stage quantizes to 8 bits.
package camera

import (
	"fmt"
	"math"
	"math/rand"

	"hsas/internal/raster"
	"hsas/internal/world"
)

// Camera describes the intrinsics and mounting of the front camera.
type Camera struct {
	Width, Height int     // sensor resolution (512×256 in the paper)
	FOVDeg        float64 // horizontal field of view, degrees
	MountHeight   float64 // meters above ground
	PitchDeg      float64 // downward pitch, degrees
	MaxDist       float64 // ground beyond this distance renders as haze
}

// Default returns the camera used in all paper experiments: 512×256
// frames (Fig. 1 caption) from a hood-mounted front camera.
func Default() Camera {
	return Camera{Width: 512, Height: 256, FOVDeg: 60, MountHeight: 1.3, PitchDeg: 6, MaxDist: 60}
}

// Scaled returns the default camera at a reduced resolution, used by fast
// tests. Geometry (FOV, mounting) is unchanged so ROIs scale linearly.
func Scaled(w, h int) Camera {
	c := Default()
	c.Width, c.Height = w, h
	return c
}

// VehiclePose is the camera carrier's ground-plane pose plus the track
// arclength hint used to localize ray hits efficiently.
type VehiclePose struct {
	X, Y, Psi float64
	S         float64 // approximate arclength along the track
}

// SensorMatrix is the spectral crosstalk of the simulated sensor: RAW
// channel responses are mixed from scene RGB. The ISP color-map stage
// applies its inverse (see isp.ColorMapMatrix).
var SensorMatrix = [3][3]float64{
	{0.75, 0.20, 0.05},
	{0.18, 0.72, 0.10},
	{0.06, 0.25, 0.69},
}

// Noise and quantization parameters of the sensor model.
const (
	ShotNoise  = 0.030 // scales with sqrt(signal)
	ReadNoise  = 0.012 // constant floor
	QuantLevel = 1023  // 10-bit RAW
	Vignetting = 0.25  // max relative falloff at frame corners
)

// Renderer renders RAW frames of a track from a vehicle pose.
//
// Every render reuses per-renderer scratch (the scene buffer, the
// frame's track view and the noise stream), so a Renderer must be used
// from one goroutine at a time; run-level parallelism (the
// characterization sweep) gives each run its own Renderer. Within a
// frame the scene shading is split over Workers.
type Renderer struct {
	Track *world.Track

	// Cam is the camera the renderer was built for. NewRenderer derives
	// the ray, ground and vignetting tables from it, so it is fixed from
	// then on: build a new Renderer for another camera.
	Cam Camera

	// Workers bounds the row-parallel scene shading: 0 uses GOMAXPROCS,
	// 1 forces serial. The rendered image is byte-identical for every
	// worker count — the split only partitions loop bounds over
	// independent pixels.
	Workers int

	// Occlude, when non-nil, masks lane-marking paint: a marking point at
	// track coordinates (s, lat) that Occlude reports as occluded is
	// shaded as bare asphalt. The fault layer injects adversarial
	// occlusion patterns here. It is called from the row-parallel shading
	// loop and MUST be a pure function of its arguments, or the
	// byte-identical-for-any-worker-count contract breaks.
	Occlude func(s, lat float64) bool

	ground groundTable
	vig    []float32 // per-pixel vignetting gain

	rng   *rand.Rand  // MosaicInto's reusable noise stream
	scene *raster.RGB // RenderRAWInto's scene scratch
	view  world.View  // RenderSceneInto's track window of the frame
}

// groundTable is what each pixel's ray needs from the camera alone. The
// pitch and mount height are fixed, so a ray's world z component, its
// class and its ground distance are the same in every frame; only the
// heading turns the ray's x and y components. Rows above skyRows are all
// sky and have no entries.
type groundTable struct {
	sinP, cosP float64      // of the pitch
	skyRows    int          // rows [0, skyRows) are all sky
	groundRow  int          // first row holding a ground pixel
	class      []pixelClass // per pixel from row skyRows
	ray        []groundRay  // per pixel from row skyRows
}

type pixelClass uint8

const (
	pixelGround pixelClass = iota
	pixelSky               // the ray does not point down
	pixelHaze              // the ground hit lies beyond MaxDist
)

// groundRay is a pixel's unit ray in the camera frame and, on ground and
// haze pixels, its ground distance MountHeight / -dz.
type groundRay struct{ x, y, z, t float64 }

// frameAxes holds the x and y components of the camera's right, down
// and forward axes in world coordinates (z up) at one heading; their z
// components are in the ground table.
type frameAxes struct{ right, down, fwd [2]float64 }

func (g *groundTable) axes(psi float64) frameAxes {
	sinPsi, cosPsi := math.Sin(psi), math.Cos(psi)
	return frameAxes{
		right: [2]float64{sinPsi, -cosPsi},
		down:  [2]float64{-g.sinP * cosPsi, -g.sinP * sinPsi},
		fwd:   [2]float64{g.cosP * cosPsi, g.cosP * sinPsi},
	}
}

// hit returns where a ground ray from a camera at (x, y) meets the
// ground.
func (ray *groundRay) hit(x, y float64, ax frameAxes) (gx, gy float64) {
	dx := ray.x*ax.right[0] + ray.y*ax.down[0] + ray.z*ax.fwd[0]
	dy := ray.x*ax.right[1] + ray.y*ax.down[1] + ray.z*ax.fwd[1]
	return x + ray.t*dx, y + ray.t*dy
}

// NewRenderer precomputes the per-pixel ground and vignetting tables for
// the camera.
func NewRenderer(track *world.Track, cam Camera) *Renderer {
	r := &Renderer{Track: track, Cam: cam, ground: newGroundTable(cam)}
	w, h := cam.Width, cam.Height
	cx, cy := float64(w)/2-0.5, float64(h)/2-0.5
	r.vig = make([]float32, w*h)
	maxR2 := cx*cx + cy*cy
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			r2 := ((float64(u)-cx)*(float64(u)-cx) + (float64(v)-cy)*(float64(v)-cy)) / maxR2
			r.vig[v*w+u] = float32(1 - Vignetting*r2)
		}
	}
	return r
}

func newGroundTable(cam Camera) groundTable {
	w, h := cam.Width, cam.Height
	fx := float64(w) / 2 / math.Tan(cam.FOVDeg*math.Pi/360)
	cx, cy := float64(w)/2-0.5, float64(h)/2-0.5
	pitch := cam.PitchDeg * math.Pi / 180
	sinP, cosP := math.Sin(pitch), math.Cos(pitch)
	g := groundTable{sinP: sinP, cosP: cosP, skyRows: h, groundRow: h}
	pixel := func(u, v int) (groundRay, pixelClass) {
		// Camera frame: x right, y down, z forward.
		dx := (float64(u) - cx) / fx
		dy := (float64(v) - cy) / fx
		dz := 1.0
		n := math.Sqrt(dx*dx + dy*dy + dz*dz)
		ray := groundRay{x: dx / n, y: dy / n, z: dz / n}
		// World z of the ray: the z components of the camera basis are
		// 0 (right), −cos(pitch) (down) and −sin(pitch) (forward).
		wz := ray.x*0 + ray.y*(-cosP) + ray.z*(-sinP)
		if wz >= -1e-6 {
			return ray, pixelSky
		}
		ray.t = cam.MountHeight / -wz
		if ray.t > cam.MaxDist {
			return ray, pixelHaze
		}
		return ray, pixelGround
	}

	for v := 0; v < h && g.skyRows == h; v++ {
		for u := 0; u < w; u++ {
			if _, c := pixel(u, v); c != pixelSky {
				g.skyRows = v
				break
			}
		}
	}
	n := (h - g.skyRows) * w
	g.ray, g.class = make([]groundRay, n), make([]pixelClass, n)
	for j := range n {
		v := g.skyRows + j/w
		g.ray[j], g.class[j] = pixel(j%w, v)
		if g.class[j] == pixelGround {
			g.groundRow = min(g.groundRow, v)
		}
	}
	return g
}

// RenderSceneInto renders the linear scene radiance (before the sensor
// model) into out and returns it. Every pixel is written, so out may be
// a recycled buffer. Rows above the first ground row hold only sky and
// haze and are filled on the calling goroutine; the ground rows are
// split over r.Workers. The track query (Locate/SurfaceAt) and the
// texture hash are pure, so the output is byte-identical to the serial
// render.
func (r *Renderer) RenderSceneInto(out *raster.RGB, vp VehiclePose) *raster.RGB {
	w, h := r.Cam.Width, r.Cam.Height
	if out.W != w || out.H != h {
		panic(fmt.Sprintf("camera: RenderSceneInto buffer is %dx%d, camera is %dx%d", out.W, out.H, w, h))
	}

	g := &r.ground
	ax := g.axes(vp.Psi)
	scene := r.Track.SituationAt(vp.S).Scene
	sky := skyColor(scene)
	// Haze fades the ground into the sky color.
	haze := [3]float32{sky[0] * 0.9, sky[1] * 0.9, sky[2] * 0.9}
	r.view = r.Track.View(vp.S, 20, r.Cam.MaxDist+10)

	off := g.skyRows * w
	for i := 0; i < g.groundRow*w; i++ {
		c := sky
		if i >= off && g.class[i-off] == pixelHaze {
			c = haze
		}
		out.R[i], out.G[i], out.B[i] = c[0], c[1], c[2]
	}
	raster.ParallelRows(h-g.groundRow, r.Workers, func(y0, y1 int) {
		for i := (g.groundRow + y0) * w; i < (g.groundRow+y1)*w; i++ {
			switch g.class[i-off] {
			case pixelSky:
				out.R[i], out.G[i], out.B[i] = sky[0], sky[1], sky[2]
				continue
			case pixelHaze:
				out.R[i], out.G[i], out.B[i] = haze[0], haze[1], haze[2]
				continue
			}
			ray := &g.ray[i-off]
			gx, gy := ray.hit(vp.X, vp.Y, ax)
			rad := r.shadeGround(gx, gy, vp, scene, ray.t)
			out.R[i], out.G[i], out.B[i] = rad[0], rad[1], rad[2]
		}
	})
	return out
}

// shadeGround returns the linear radiance of the ground point (gx, gy).
func (r *Renderer) shadeGround(gx, gy float64, vp VehiclePose, scene world.Scene, dist float64) [3]float32 {
	s, lat, ok := r.view.Locate(gx, gy, world.RoadHalfWidth+6)
	var alb [3]float64
	if ok {
		sf := r.view.SurfaceAt(s, lat)
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

// illumination returns per-channel illumination at a ground point.
func (r *Renderer) illumination(gx, gy, s, lat float64, onTrack bool, vp VehiclePose, scene world.Scene, dist float64) [3]float64 {
	switch scene {
	case world.Day:
		return [3]float64{1, 1, 1}
	case world.Dawn:
		return [3]float64{0.60, 0.50, 0.42}
	case world.Dusk:
		return [3]float64{0.50, 0.42, 0.44}
	case world.Night:
		il := ambient(0.050, 0.055, 0.075)
		if onTrack {
			addStreetLights(&il, s, lat)
		}
		addHeadlights(&il, gx, gy, vp)
		return il
	case world.Dark:
		il := ambient(0.012, 0.012, 0.016)
		addHeadlights(&il, gx, gy, vp)
		return il
	}
	return [3]float64{1, 1, 1}
}

func ambient(r, g, b float64) [3]float64 { return [3]float64{r, g, b} }

// Street lights: sodium-tinted lamps every lampSpacing meters on the left
// verge, modelled as point sources at lampHeight.
const (
	lampSpacing = 35.0
	lampHeight  = 6.0
	lampLateral = 5.5
	lampPower   = 55.0 // intensity scale (W-equivalent, arbitrary units)
)

func addStreetLights(il *[3]float64, s, lat float64) {
	base := math.Floor(s/lampSpacing) * lampSpacing
	for _, ls := range [3]float64{base - lampSpacing, base, base + lampSpacing} {
		ds := s - ls
		dl := lat - lampLateral
		d2 := ds*ds + dl*dl + lampHeight*lampHeight
		e := lampPower / d2 * (lampHeight / math.Sqrt(d2)) // cosine falloff
		il[0] += e * 1.0
		il[1] += e * 0.85
		il[2] += e * 0.55
	}
}

// Headlights: a forward cone from the vehicle, reaching ~25 m.
const (
	headlightPower = 28.0
	headlightSigma = 0.22 // radians, angular half-width
)

func addHeadlights(il *[3]float64, gx, gy float64, vp VehiclePose) {
	dx, dy := gx-vp.X, gy-vp.Y
	d2 := dx*dx + dy*dy + 1
	ang := math.Atan2(dy, dx) - vp.Psi
	for ang > math.Pi {
		ang -= 2 * math.Pi
	}
	for ang < -math.Pi {
		ang += 2 * math.Pi
	}
	if math.Abs(ang) > 4*headlightSigma {
		return
	}
	e := headlightPower / d2 * math.Exp(-ang*ang/(2*headlightSigma*headlightSigma))
	il[0] += e
	il[1] += e * 0.97
	il[2] += e * 0.90
}

// albedo returns the linear reflectance of a surface, with deterministic
// spatial texture so asphalt is not a flat field.
func albedo(sf world.Surface, gx, gy float64) [3]float64 {
	tex := textureNoise(gx, gy)
	switch sf.Kind {
	case world.SurfaceMarking:
		if sf.Color == world.Yellow {
			return [3]float64{0.80 + 0.05*tex, 0.62 + 0.04*tex, 0.12}
		}
		return [3]float64{0.85 + 0.05*tex, 0.85 + 0.05*tex, 0.82 + 0.05*tex}
	case world.SurfaceAsphalt:
		v := 0.21 + 0.035*tex
		return [3]float64{v, v, v * 1.02}
	case world.SurfaceShoulder:
		v := 0.30 + 0.05*tex
		return [3]float64{v * 1.05, v, v * 0.8}
	default: // off-road grass/dirt
		v := 0.16 + 0.06*tex
		return [3]float64{v * 0.7, v, v * 0.45}
	}
}

// textureNoise is a deterministic hash-based noise in [-1, 1] over a
// ~8 cm grid, giving the ground a stable speckle independent of the
// traversal order.
func textureNoise(gx, gy float64) float64 {
	xi := int64(math.Floor(gx * 12))
	yi := int64(math.Floor(gy * 12))
	h := uint64(xi)*0x9E3779B97F4A7C15 ^ uint64(yi)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return float64(h&0xFFFF)/32767.5 - 1
}

func skyColor(scene world.Scene) [3]float32 {
	switch scene {
	case world.Day:
		return [3]float32{0.55, 0.70, 0.92}
	case world.Dawn:
		return [3]float32{0.55, 0.42, 0.38}
	case world.Dusk:
		return [3]float32{0.42, 0.33, 0.38}
	case world.Night:
		return [3]float32{0.030, 0.034, 0.055}
	case world.Dark:
		return [3]float32{0.006, 0.006, 0.010}
	}
	return [3]float32{0.5, 0.5, 0.5}
}

// RenderRAW renders the scene and applies the full sensor model into a
// new mosaic; see RenderRAWInto.
func (r *Renderer) RenderRAW(vp VehiclePose, seed int64) *raster.Bayer {
	return r.RenderRAWInto(raster.NewBayer(r.Cam.Width, r.Cam.Height), vp, seed)
}

// RenderRAWInto renders the scene into per-renderer scratch and applies
// the full sensor model into raw: spectral crosstalk, vignetting, CFA
// sampling, shot + read noise, and 10-bit quantization. The result is
// the RAW mosaic the ISP consumes; seed makes the per-frame noise
// deterministic. Every sample is written, so raw may be a recycled
// buffer. It returns raw.
func (r *Renderer) RenderRAWInto(raw *raster.Bayer, vp VehiclePose, seed int64) *raster.Bayer {
	w, h := r.Cam.Width, r.Cam.Height
	if r.scene == nil || r.scene.W != w || r.scene.H != h {
		r.scene = raster.NewRGB(w, h)
	}
	r.RenderSceneInto(r.scene, vp)
	return r.MosaicInto(raw, r.scene, seed)
}

// MosaicInto applies the sensor model to a linear scene radiance image
// into raw and returns raw. It reseeds a per-renderer noise stream;
// reseeding a rand.Rand restores exactly the state of
// rand.New(rand.NewSource(seed)), so the mosaic depends only on the
// scene and the seed. The sensor noise is a single sequential stream
// (two normal variates per pixel in raster order), so this stage stays
// serial by construction.
func (r *Renderer) MosaicInto(raw *raster.Bayer, scene *raster.RGB, seed int64) *raster.Bayer {
	w, h := scene.W, scene.H
	if raw.W != w || raw.H != h {
		panic(fmt.Sprintf("camera: mosaic buffer is %dx%d, scene is %dx%d", raw.W, raw.H, w, h))
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
	} else {
		r.rng.Seed(seed)
	}
	rng, vig := r.rng, r.vig
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
			v *= float64(vig[i])
			v += math.Sqrt(math.Max(v, 0))*ShotNoise*rng.NormFloat64() + ReadNoise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			// 10-bit quantization; values may exceed 1 before the ISP's
			// gamut/tone stages, so clip at the sensor's full well (1.0).
			if v > 1 {
				v = 1
			}
			v = math.Round(v*QuantLevel) / QuantLevel
			raw.Pix[i] = float32(v)
		}
	}
	return raw
}

// PoseOnTrack returns the vehicle pose at arclength s with lateral offset
// lat and heading offset dpsi from the track tangent.
func PoseOnTrack(t *world.Track, s, lat, dpsi float64) VehiclePose {
	p := t.Pose(s)
	x, y := t.Point(s, lat)
	return VehiclePose{X: x, Y: y, Psi: p.Theta + dpsi, S: s}
}
