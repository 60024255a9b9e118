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
	"runtime"
	"sync"
	"sync/atomic"

	"hsas/internal/mat"
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
// frame's state and track view, the noise stream and its drawn normals),
// so a Renderer must be used from one goroutine at a time; run-level
// parallelism (the characterization sweep) gives each run its own
// Renderer. Within a frame the rows are split over Workers, which shade
// them and apply the sensor model to them, while the frame's sensor
// noise is drawn alongside.
type Renderer struct {
	Track *world.Track

	// Cam is the camera the renderer was built for. NewRenderer derives
	// the ray, ground and vignetting tables from it, and shares them with
	// other renderers of the same camera, so it is fixed from then on:
	// build a new Renderer for another camera.
	Cam Camera

	// Workers bounds the row-parallel render: 0 uses GOMAXPROCS, 1
	// forces serial. With two or more, RenderRAWSpansInto also draws the
	// frame's sensor noise on its own goroutine while the scene shades.
	// The rendered image is byte-identical for every worker count — the
	// split only decides which goroutine computes which independent row,
	// and the noise is one stream drawn in raster order whatever the
	// split.
	Workers int

	// Occlude, when non-nil, masks lane-marking paint: a marking point at
	// track coordinates (s, lat) that Occlude reports as occluded is
	// shaded as bare asphalt. The fault layer injects adversarial
	// occlusion patterns here. It is called from the row-parallel shading
	// loop and MUST be a pure function of its arguments, or the
	// byte-identical-for-any-worker-count contract breaks.
	Occlude func(s, lat float64) bool

	ground *groundTable // shared with every renderer of Cam; read only
	vig    []float32    // per-pixel vignetting gain; shared like ground

	rng     *rand.Rand     // RenderRAWSpansInto's reusable noise stream
	noise   []float64      // the frame's normals: pixel i takes 2i and 2i+1
	drawTo  int            // normals the frame draws: those of its last raw row and above
	draw    func()         // r.drawNoise, bound once so go r.draw() allocates nothing
	drawn   sync.WaitGroup // done once noise holds the frame's normals
	split   func(_, _ int) // r.claimRows, bound once so the row split allocates nothing
	claimed atomic.Int64   // rows the row split's goroutines have claimed
	scene   *raster.RGB    // RenderRAWSpansInto's scene scratch
	view    world.View     // the frame's track window
	frame   frameState     // what the row split reads
}

// frameState is the frame being rendered, as the row split's goroutines
// read it. render sets their claim order once per frame: claim c below
// ground shades the span of ground row g0+c, and, rendering RAW, claim c
// from ground up to claims takes the span of the sky or haze row
// lo+c-ground, which the calling goroutine filled.
type frameState struct {
	vp        VehiclePose
	ax        frameAxes
	scene     world.Scene
	sky, haze [3]float32
	out       *raster.RGB
	raw       *raster.Bayer // nil rendering the scene alone
	spans     []raster.Span // the pixels rendered, one span per row
	lo, g0    int
	ground    int
	claims    int
}

// cameraTables are what NewRenderer derives from the camera alone. They
// are never written after they are built, so renderers of one camera
// share them.
type cameraTables struct {
	cam    Camera
	ground groundTable
	vig    []float32
}

// lastTables holds the tables of the camera a renderer was last built
// for. A run builds one renderer and a sweep builds many of one camera,
// so one entry serves them all; another camera replaces it. The tables
// are a pure function of the camera, so no caller can tell whether it
// got shared ones or fresh ones.
var lastTables atomic.Pointer[cameraTables]

func tablesFor(cam Camera) *cameraTables {
	if t := lastTables.Load(); t != nil && t.cam == cam {
		return t
	}
	t := &cameraTables{cam: cam, ground: newGroundTable(cam), vig: newVignetting(cam)}
	lastTables.Store(t)
	return t
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

// NewRenderer returns a renderer of track through cam. The per-pixel
// ground and vignetting tables are built once per camera and shared.
func NewRenderer(track *world.Track, cam Camera) *Renderer {
	t := tablesFor(cam)
	return &Renderer{Track: track, Cam: cam, ground: &t.ground, vig: t.vig}
}

func newVignetting(cam Camera) []float32 {
	w, h := cam.Width, cam.Height
	cx, cy := float64(w)/2-0.5, float64(h)/2-0.5
	vig := make([]float32, w*h)
	maxR2 := cx*cx + cy*cy
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			r2 := ((float64(u)-cx)*(float64(u)-cx) + (float64(v)-cy)*(float64(v)-cy)) / maxR2
			vig[v*w+u] = float32(1 - Vignetting*r2)
		}
	}
	return vig
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
	r.render(out, nil, vp, raster.FullSpans(w, h))
	return out
}

// render shades the pixels of spans into out. When raw is non-nil it
// also applies the sensor model to them once the frame's noise is drawn.
// Every pixel of spans is written and no other is.
//
// The spans of the sky and haze rows above the first ground row are
// filled on the calling goroutine. The row split's goroutines then claim
// rows one at a time from a shared counter (claimRows): first the ground
// rows, whose spans they shade, then, rendering RAW, the sky and haze
// rows. A goroutine keeps the ground rows it shaded and applies the
// sensor model to them once the noise is drawn, at the latest when it
// claims a sky row, whose sensor model it then applies too. A goroutine
// that starts late, behind the noise draw on its CPU, so claims fewer
// rows than one that starts at once, which fixed halves of the rows
// could not allow.
func (r *Renderer) render(out *raster.RGB, raw *raster.Bayer, vp VehiclePose, spans []raster.Span) {
	w := r.Cam.Width
	g := r.ground
	f := &r.frame
	lo, hi := raster.SpanRows(spans)
	f.vp, f.ax, f.out, f.raw, f.spans = vp, g.axes(vp.Psi), out, raw, spans
	f.scene = r.Track.SituationAt(vp.S).Scene
	f.sky = skyColor(f.scene)
	// Haze fades the ground into the sky color.
	f.haze = [3]float32{f.sky[0] * 0.9, f.sky[1] * 0.9, f.sky[2] * 0.9}
	r.view = r.Track.View(vp.S, 20, r.Cam.MaxDist+10)

	off := g.skyRows * w
	skyHi := max(min(g.groundRow, hi), lo)
	for y := lo; y < skyHi; y++ {
		for i, end := y*w+spans[y].A, y*w+spans[y].B; i < end; i++ {
			c := f.sky
			if i >= off && g.class[i-off] == pixelHaze {
				c = f.haze
			}
			out.R[i], out.G[i], out.B[i] = c[0], c[1], c[2]
		}
	}
	f.lo, f.g0 = lo, max(g.groundRow, lo)
	f.ground = max(hi-f.g0, 0)
	f.claims = f.ground
	if raw != nil {
		f.claims += skyHi - lo
	}
	if r.split == nil {
		r.split = r.claimRows
	}
	r.claimed.Store(0)
	mat.ParallelRows(f.ground, r.Workers, r.split)
	f.out, f.raw, f.spans = nil, nil, nil
}

// claimRows is one goroutine of render's row split; its row range is
// unused, since the rows are claimed from r.claimed.
func (r *Renderer) claimRows(_, _ int) {
	f, g, w := &r.frame, r.ground, r.Cam.Width
	off := g.skyRows * w
	var mine [256]int32 // claimed rows awaiting the sensor model
	n := 0
	for {
		c := int(r.claimed.Add(1)) - 1
		if c >= f.claims {
			break
		}
		y := f.lo + c - f.ground // claims past the ground rows are sky rows
		if c < f.ground {
			y = f.g0 + c
			for i, end := y*w+f.spans[y].A, y*w+f.spans[y].B; i < end; i++ {
				switch g.class[i-off] {
				case pixelSky:
					f.out.R[i], f.out.G[i], f.out.B[i] = f.sky[0], f.sky[1], f.sky[2]
					continue
				case pixelHaze:
					f.out.R[i], f.out.G[i], f.out.B[i] = f.haze[0], f.haze[1], f.haze[2]
					continue
				}
				ray := &g.ray[i-off]
				gx, gy := ray.hit(f.vp.X, f.vp.Y, f.ax)
				rad := r.shadeGround(gx, gy, f.vp, f.scene, ray.t)
				f.out.R[i], f.out.G[i], f.out.B[i] = rad[0], rad[1], rad[2]
			}
		}
		if f.raw == nil {
			continue
		}
		mine[n] = int32(y)
		n++
		if n == len(mine) || c >= f.ground {
			r.sensorRows(f.raw, f.out, mine[:n])
			n = 0
		}
	}
	if f.raw != nil {
		r.sensorRows(f.raw, f.out, mine[:n])
	}
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
// new mosaic; see RenderRAWSpansInto.
func (r *Renderer) RenderRAW(vp VehiclePose, seed int64) *raster.Bayer {
	return r.RenderRAWInto(raster.NewBayer(r.Cam.Width, r.Cam.Height), vp, seed)
}

// RenderRAWInto is RenderRAWSpansInto over every pixel.
func (r *Renderer) RenderRAWInto(raw *raster.Bayer, vp VehiclePose, seed int64) *raster.Bayer {
	return r.RenderRAWSpansInto(raw, vp, seed, raster.FullSpans(r.Cam.Width, r.Cam.Height))
}

// RenderRAWSpansInto renders the pixels of spans (one per row) of the
// scene into per-renderer scratch and applies the full sensor model to
// them into raw: spectral crosstalk, vignetting, CFA sampling, shot +
// read noise, and 10-bit quantization. The result is the RAW mosaic the
// ISP consumes; seed makes the per-frame noise deterministic. Every
// sample of spans is written and no other is, so raw may be a recycled
// buffer. It returns raw.
//
// The noise is one stream reseeded per frame, two normals per pixel in
// raster order (shot, then read), and reseeding a rand.Rand restores
// exactly the state of rand.New(rand.NewSource(seed)), so the mosaic
// depends only on the scene and the seed. The stream stops at the last
// row with a non-empty span, so every pixel of spans gets the normals
// the whole frame gives it. The normals never depend on the scene, so
// with two or more workers a goroutine draws them while the scene
// shades; with one the calling goroutine draws them first. Either way
// the sensor model runs in the row split; see render.
func (r *Renderer) RenderRAWSpansInto(raw *raster.Bayer, vp VehiclePose, seed int64, spans []raster.Span) *raster.Bayer {
	w, h := r.Cam.Width, r.Cam.Height
	if raw.W != w || raw.H != h {
		panic(fmt.Sprintf("camera: RenderRAWSpansInto buffer is %dx%d, camera is %dx%d", raw.W, raw.H, w, h))
	}
	if err := raster.CheckSpans(spans, w, h); err != nil {
		panic("camera: " + err.Error())
	}
	if r.scene == nil || r.scene.W != w || r.scene.H != h {
		r.scene = raster.NewRGB(w, h)
	}
	if len(r.noise) != 2*w*h {
		r.noise = make([]float64, 2*w*h)
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
	} else {
		r.rng.Seed(seed)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if r.draw == nil {
		r.draw = r.drawNoise
	}
	_, hi := raster.SpanRows(spans)
	r.drawTo = 2 * w * hi
	r.drawn.Add(1)
	if workers >= 2 {
		go r.draw()
	} else {
		r.draw()
	}
	r.render(r.scene, raw, vp, spans)
	return raw
}

// drawNoise fills r.noise through r.drawTo from the freshly seeded
// stream.
func (r *Renderer) drawNoise() {
	defer r.drawn.Done()
	rng, noise := r.rng, r.noise[:r.drawTo]
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
}

// sensorRows waits for the frame's noise and applies the sensor model to
// the spans of the given rows of the scene radiance into raw, pixel i
// taking the normals noise[2i] and noise[2i+1]. Each span is sliced out
// once, so the pixel loop indexes within the span.
func (r *Renderer) sensorRows(raw *raster.Bayer, scene *raster.RGB, rows []int32) {
	r.drawn.Wait()
	w := scene.W
	m := &SensorMatrix
	for _, y := range rows {
		s := r.frame.spans[y]
		i0, i1 := int(y)*w+s.A, int(y)*w+s.B
		sR, sG, sB := scene.R[i0:i1], scene.G[i0:i1], scene.B[i0:i1]
		vig, out := r.vig[i0:i1], raw.Pix[i0:i1]
		n := r.noise[2*i0 : 2*i1]
		for i := range out {
			x := s.A + i
			sr, sg, sb := float64(sR[i]), float64(sG[i]), float64(sB[i])
			var v float64
			switch raster.ColorAt(x, int(y)) {
			case raster.CFARed:
				v = m[0][0]*sr + m[0][1]*sg + m[0][2]*sb
			case raster.CFAGreen:
				v = m[1][0]*sr + m[1][1]*sg + m[1][2]*sb
			default:
				v = m[2][0]*sr + m[2][1]*sg + m[2][2]*sb
			}
			v *= float64(vig[i])
			v += math.Sqrt(math.Max(v, 0))*ShotNoise*n[2*i] + ReadNoise*n[2*i+1]
			if v < 0 {
				v = 0
			}
			// 10-bit quantization; values may exceed 1 before the ISP's
			// gamut/tone stages, so clip at the sensor's full well (1.0).
			if v > 1 {
				v = 1
			}
			v = math.Round(v*QuantLevel) / QuantLevel
			out[i] = float32(v)
		}
	}
}

// PoseOnTrack returns the vehicle pose at arclength s with lateral offset
// lat and heading offset dpsi from the track tangent.
func PoseOnTrack(t *world.Track, s, lat, dpsi float64) VehiclePose {
	p := t.Pose(s)
	x, y := t.Point(s, lat)
	return VehiclePose{X: x, Y: y, Psi: p.Theta + dpsi, S: s}
}
