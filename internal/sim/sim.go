// Package sim is the closed-loop hardware-in-the-loop substitute: it
// replaces the paper's Webots + IMACS setup with a fixed-step (5 ms)
// simulation of the nonlinear vehicle, the synthetic camera, the ISP,
// perception, situation classifiers, the delay-aware LQR controller and
// the dynamic runtime reconfiguration of Sec. III-D.
//
// Two clocks run: physics advances every Platform.SimStepMs; the sensing
// pipeline samples every h (ceiled to that step, footnote 5) and actuates
// tau after each capture. A run starts centered at the track's start and
// drives the BMW X5 plant. PR and control knobs reconfigure in the same
// cycle as situation identification; the ISP knob applies one cycle
// later, exactly as the paper argues is safe.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/control"
	"hsas/internal/fault"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/mat"
	"hsas/internal/metrics"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/raster"
	"hsas/internal/scheduler"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

// Sensor produces a class label for one classifier kind from the
// ISP-processed frame. The ground-truth situation is supplied so oracle
// sensors (used to isolate perception effects from classification errors)
// can be substituted for trained CNNs.
type Sensor interface {
	Classify(img *raster.RGB, truth world.Situation) int
}

// Oracle is a perfect sensor of one kind.
type Oracle struct{ Kind classifier.Kind }

// Classify implements Sensor with the ground-truth label.
func (o Oracle) Classify(_ *raster.RGB, truth world.Situation) int {
	l, ok := o.Kind.Label(truth)
	if !ok {
		// Outside the classifier taxonomy (e.g. white double): report the
		// nearest class the runtime can act on.
		return 0
	}
	return l
}

// CNN wraps a trained classifier as a Sensor.
type CNN struct{ C *classifier.Classifier }

// Classify implements Sensor with real inference.
func (s CNN) Classify(img *raster.RGB, _ world.Situation) int { return s.C.Classify(img) }

// Sensors bundles the three situation sensors.
type Sensors struct {
	Road, Lane, Scene Sensor
}

// OracleSensors returns perfect sensors for all three kinds.
func OracleSensors() Sensors {
	return Sensors{
		Road:  Oracle{classifier.Road},
		Lane:  Oracle{classifier.Lane},
		Scene: Oracle{classifier.Scene},
	}
}

// Config parameterizes one closed-loop run.
type Config struct {
	Track    *world.Track
	Camera   camera.Camera
	Platform platform.Platform // its SimStepMs is the physics step

	Case  knobs.Case
	Table knobs.Table // characterized table (cases 4 / variable)
	Sens  Sensors     // defaults to OracleSensors

	// FixedSetting, when non-nil, disables runtime reconfiguration and
	// runs the whole track with this knob setting and the given number of
	// per-frame classifier invocations charged to the pipeline timing.
	// This is the design-time characterization mode (Sec. III-B).
	FixedSetting     *knobs.Setting
	FixedClassifiers int

	// KernelWorkers bounds the goroutines used by the per-pixel image
	// kernels (camera render, ISP stages) and by the CNN sensors' GEMM
	// kernels within ONE closed-loop run.
	// 0 means GOMAXPROCS; negative forces serial. Characterization sweeps
	// that already parallelize across candidate runs set this to 1 (or a
	// divided share) so the two pools compose instead of oversubscribing.
	// Results are byte-identical for any worker count.
	KernelWorkers int

	Seed     int64
	MaxTimeS float64 // wall-clock cap, default sized from track length

	// UseFeedforward enables the measured-curvature steering feedforward.
	// The paper's controller is a pure LQR on yL (Sec. II); feedforward is
	// provided as an ablation (see bench_ablation_test.go).
	UseFeedforward bool

	// Faults, when non-nil, deterministically injects sensing and
	// platform faults drawn from the run seed (see internal/fault):
	// the same Config, seed and schedule reproduce a bit-identical run
	// for any KernelWorkers value. The nil default adds only nil checks
	// to the frame cycle (the obs.Observer zero-overhead rule).
	Faults *fault.Schedule

	// Degrade tunes the graceful-degradation policies (hold-last-command
	// on dropped frames, robust-knob fallback after consecutive sensing
	// failures, missed-deadline watchdog). The zero value applies the
	// defaults; the policies engage only when Faults is set or
	// Degrade.Enabled forces them on.
	Degrade Degradation

	// Trace, when set, receives one sample per control cycle.
	Trace func(TracePoint)

	// Obs, when set, enables observability: per-stage latency histograms
	// and counters in Obs.Metrics, one span per pipeline stage per
	// control cycle in Obs.Trace, and structured progress logs on
	// Obs.Log. The nil default is a no-op with near-zero overhead
	// (BenchmarkSimRunInstrumented).
	Obs *obs.Observer
}

// TracePoint is one control-cycle sample for debugging and plots.
type TracePoint struct {
	TimeS float64
	S     float64
	// Lat is the vehicle's lateral offset from the lane center (meters,
	// positive left) as of the most recent physics localization; the
	// first sample reports the centered start, 0.
	Lat    float64
	YLTrue float64
	YLMeas float64
	// DetOK is the gated detection outcome actually consumed by the
	// controller this cycle: false exactly when the cycle coasted (and
	// was counted in Result.DetectFails), whether the cause was a
	// perception miss or the innovation gate rejecting an outlier.
	DetOK bool
	// RawDetOK is the pre-gating perception verdict (Result.OK from the
	// detector). RawDetOK && !DetOK means the innovation gate rejected
	// the measurement; !RawDetOK implies !DetOK.
	RawDetOK bool
	Steer    float64
	Sector   int
	Setting  knobs.Setting
	HMs      float64
	TauMs    float64
	// Fault names the fault classes injected into this cycle, joined by
	// '+' ("" on a clean cycle), e.g. "noise" or "drop" — see
	// fault.Mask.String.
	Fault string
	// Degraded reports whether the robust fallback tuning governed this
	// cycle's knob selection.
	Degraded bool
}

// Result summarizes one closed-loop run.
type Result struct {
	PerSector   *metrics.PerSector
	MAE         float64
	Crashed     bool
	CrashSector int
	CrashTimeS  float64
	CompletedS  float64
	Frames      int
	DetectFails int
	Detection   metrics.DetectionAccuracy
	// SettingsUsed records the distinct knob settings applied, in order.
	SettingsUsed []knobs.Setting
	// Faults tallies injected fault events by kind (all zero without a
	// fault schedule).
	Faults fault.Counts
	// Degraded summarizes the graceful-degradation activity of the run.
	Degraded DegradationStats
}

// Crash thresholds: the run fails when the vehicle center leaves the
// paved lane corridor or yaws far off the road tangent — the Webots
// analog is hitting the barriers.
const (
	crashLat     = 2.4 // meters from lane center
	crashHeading = 1.0 // radians from track tangent
	ylGate       = 1.2 // meters: max credible yL change between samples
	speedAccel   = 2.0 // m/s^2 when speeding up to the knob
	speedDecel   = 4.0 // m/s^2 when braking down to the knob
	previewM     = 15  // meters ahead the classifiers' ground truth covers
	endMargin    = 22  // meters before the track end where a run stops
)

// Run executes the closed-loop simulation to the end of the track, a
// crash, or the time cap.
func Run(cfg Config) (*Result, error) {
	if cfg.Track == nil {
		return nil, fmt.Errorf("sim: Config.Track is required")
	}
	if err := cfg.Degrade.Validate(); err != nil {
		return nil, err
	}
	if cfg.Camera.Width == 0 {
		cfg.Camera = camera.Default()
	}
	if cfg.Platform.Name == "" {
		cfg.Platform = platform.Xavier()
	}
	if !(cfg.Platform.SimStepMs > 0) {
		return nil, fmt.Errorf("sim: Platform.SimStepMs %v is not positive", cfg.Platform.SimStepMs)
	}
	if cfg.Sens.Road == nil {
		cfg.Sens = OracleSensors()
	}
	if cfg.Table == nil {
		cfg.Table = knobs.PaperTable()
	}
	if cfg.MaxTimeS == 0 {
		// Generous cap: slowest speed plus settling margin.
		cfg.MaxTimeS = cfg.Track.Length()/vehicle.Kmph(25) + 10
	}

	var met *simMetrics
	if cfg.Obs.Enabled() {
		met = newSimMetrics(cfg.Obs)
		cfg.Obs.Logger().Info("sim run start",
			"case", cfg.Case.String(), "track_m", cfg.Track.Length(),
			"camera", fmt.Sprintf("%dx%d", cfg.Camera.Width, cfg.Camera.Height), "seed", cfg.Seed)
	}
	l, err := newLoop(cfg, met)
	if err != nil {
		return nil, err
	}
	defer l.release()
	res, err := l.simulate()
	if err == nil && met != nil {
		met.flushPhysics()
		if res.Crashed {
			met.crashes.Inc()
		}
		cfg.Obs.Logger().Info("sim run complete",
			"frames", res.Frames, "mae_m", res.MAE, "completed_m", res.CompletedS,
			"detect_fails", res.DetectFails, "crashed", res.Crashed,
			"reconfigurations", len(res.SettingsUsed)-1)
	}
	return res, err
}

type designKey struct{ speed, hMs, tauMs float64 }

// numClasses is the label count of each classifier kind, in Road, Lane,
// Scene order.
var numClasses = [3]int{world.NumRoadClasses, world.NumLaneClasses, world.NumSceneClasses}

// loop is the state of one closed-loop run. step is one control cycle
// (capture → process → classify and select → perceive → act; classify
// and select first when no sensor reads the frame; drop for a lost
// frame; then finishCycle); physics advances the plant between captures.
type loop struct {
	cfg     Config
	met     *simMetrics // nil when observability is disabled
	rend    *camera.Renderer
	det     *perception.Detector
	team    *mat.Team // the run's kernel workers; nil at one
	sens    [3]Sensor
	cnns    []*classifier.Classifier // the trained sensors among sens
	designs map[designKey]*control.Design
	policy  scheduler.Policy // the case's classifier invocations
	inj     *fault.Injector  // nil without a fault schedule
	deg     degrade
	res     *Result

	// Knob state: the believed situation (one class per kind, updated by
	// the invoked classifiers), the applied setting and what it sets.
	bel         [3]int
	perFrame    int // classifier invocations charged to the pipeline timing
	setting     knobs.Setting
	activeISP   isp.Config
	timing      platform.Timing
	ctl         *control.Controller
	plant       *vehicle.Plant
	targetSpeed float64

	// Frame buffers leased from the raster pool for the whole run: the RAW
	// mosaic and the ISP's ping/pong RGB pair. Every frame overwrites the
	// mosaic on rawSpans and the RGB pair on spans; see setSpans.
	raw             *raster.Bayer
	frameA, frameB  *raster.RGB
	imageFree       bool // no sensor reads a frame; see newLoop
	spanROI         int  // the ROI spans are of, when imageFree
	spans, rawSpans []raster.Span
	drawRows        int // the rows any frame's rawSpans can reach

	// One occlusion closure for the whole run (the pattern is fixed in
	// world space; only its area fraction varies per frame).
	occFrac float64
	occFn   func(sArc, lat float64) bool

	t, s, lastLat, endS float64 // sim time (ms), arclength, lateral offset
	frame               int
	nextFrameMs         float64
	actT, actU          float64 // pending actuation time (ms) and command
	lastU               float64 // last scheduled command, re-issued by hold-last
	curvEMA, ylPrev     float64
	haveYl              bool
	gateRejects         int

	// stageT holds the wall-clock start and end of each pipeline stage
	// of the current cycle (indexed as stageNames), and cycleT the
	// cycle's, stamped only when instrumented.
	stageT [pipelineStages][2]time.Time
	cycleT [2]time.Time
}

// cycle is one control cycle's record, filled in stage order and closed
// by finishCycle.
type cycle struct {
	dropped bool
	fault   fault.Mask
	truth   world.Situation // what the frame depicts (classifier ground truth)
	rgb     *raster.RGB
	setting knobs.Setting // the knob setting selected for this cycle
	pres    perception.Result
	ylTrue  float64
	measOK  bool // the gated measurement the controller consumed
	forced  bool // measOK only because the innovation gate saturated
	u       float64
	tauMs   float64 // this command's sensor-to-actuation delay
	held    bool    // a dropped frame bridged by re-issuing lastU
}

func newLoop(cfg Config, met *simMetrics) (*loop, error) {
	kw := cfg.KernelWorkers
	if kw == 0 {
		kw = runtime.GOMAXPROCS(0)
	}
	kw = max(kw, 1)
	l := &loop{
		cfg: cfg, met: met,
		rend:    camera.NewRenderer(cfg.Track, cfg.Camera),
		det:     perception.NewDetector(perception.NewGeometry(cfg.Camera)),
		sens:    [3]Sensor{cfg.Sens.Road, cfg.Sens.Lane, cfg.Sens.Scene},
		designs: map[designKey]*control.Design{},
		policy:  scheduler.ForCase(cfg.Case),
		// A nil schedule yields a nil injector whose queries are nil
		// checks, and an inactive degrade state that reproduces the
		// fault-free loop bit-identically.
		inj: fault.NewInjector(cfg.Faults, cfg.Seed),
		deg: newDegrade(&cfg),
		res: &Result{
			PerSector: metrics.NewPerSector(len(cfg.Track.Segments)),
			Detection: metrics.DetectionAccuracy{Tol: 0.3},
		},
		endS: cfg.Track.Length() - endMargin,
		actT: math.Inf(1),
	}
	l.perFrame = l.policy.PerFrame()
	// CNN sensors inherit the same bound for their GEMM kernels (on both
	// precision paths); results are bit-identical for any worker count
	// (the mat determinism contract), so this is purely a latency knob.
	for _, s := range l.sens {
		if c, ok := s.(CNN); ok && c.C != nil && c.C.Net != nil {
			c.C.SetKernelWorkers(kw)
			l.cnns = append(l.cnns, c.C)
		}
	}
	if cfg.FixedSetting != nil {
		l.perFrame = cfg.FixedClassifiers
	}
	occSeed := fault.OcclusionSeed(cfg.Seed)
	l.occFn = func(sArc, lat float64) bool { return fault.MarkingOccluded(sArc, lat, l.occFrac, occSeed) }

	// Initial belief: ground truth at the starting position (the first
	// frame immediately refreshes whatever the policy invokes).
	truth0 := cfg.Track.SituationAt(0)
	l.bel[0], l.bel[2] = int(truth0.Layout), int(truth0.Scene)
	if lc, ok := world.LaneClass(truth0.Lane); ok {
		l.bel[1] = lc
	}
	if err := l.retune(l.choose()); err != nil {
		return nil, err
	}

	// Vehicle starts centered, aligned, at the setting's speed.
	vp := camera.PoseOnTrack(cfg.Track, 0, 0, 0)
	l.plant = vehicle.NewPlant(vehicle.BMWX5(), l.targetSpeed, vehicle.State{X: vp.X, Y: vp.Y, Psi: vp.Psi})
	fw, fh := cfg.Camera.Width, cfg.Camera.Height
	l.raw, l.frameA, l.frameB = raster.GetBayer(fw, fh), raster.GetRGB(fw, fh), raster.GetRGB(fw, fh)
	// With plain oracle sensors nothing but lane detection reads a frame,
	// so a cycle classifies and selects its setting before capture and
	// computes only the selected ROI's spans (setSpans). Any other sensor
	// may read every pixel, so it gets whole frames, captured first.
	l.imageFree, l.spanROI = true, -1
	for _, s := range l.sens {
		if _, ok := s.(Oracle); !ok {
			l.imageFree = false
		}
	}
	if !l.imageFree {
		l.spans, l.rawSpans = raster.FullSpans(fw, fh), raster.FullSpans(fw, fh)
	}
	l.drawRows = fh
	if l.imageFree {
		l.drawRows = 0
		var spans, rawSpans []raster.Span
		for _, roi := range perception.ROIs {
			spans, rawSpans = roiSpans(l.det, roi, cfg.Camera, spans, rawSpans)
			_, hi := raster.SpanRows(rawSpans)
			l.drawRows = max(l.drawRows, hi)
		}
	}
	// The render, the ISP stages and the BEV scoring split their rows
	// over one team for the whole run, and a frame's sensor noise is
	// drawn on it while the frame before is processed (process).
	l.team = mat.NewTeam(kw)
	l.rend.Team, l.rend.Workers, l.det.Team = l.team, kw, l.team
	return l, nil
}

// setSpans points spans and rawSpans at the pixels a frame computes for
// ROI roiID (see roiSpans), when no sensor reads the frame.
func (l *loop) setSpans(roiID int) {
	if !l.imageFree || roiID == l.spanROI {
		return
	}
	roi, _ := perception.ROIByID(roiID)
	l.spans, l.rawSpans = roiSpans(l.det, roi, l.cfg.Camera, l.spans, l.rawSpans)
	l.spanROI = roiID
}

// roiSpans sets spans, through the ISP, to the pixels of a cam frame
// that detection reads under roi, and rawSpans, through the renderer, to
// those dilated by two rows and columns: one for the denoise filter's
// 3×3 window and one for the demosaic's under it. It returns both,
// reusing their memory. Those pixels come out bit for bit as the whole
// frame's.
func roiSpans(det *perception.Detector, roi perception.ROI, cam camera.Camera, spans, rawSpans []raster.Span) ([]raster.Span, []raster.Span) {
	spans = det.SourceSpans(spans, cam.Width, cam.Height, roi)
	return spans, raster.DilateSpans(rawSpans, spans, 2, cam.Width)
}

// release stops the team and returns the frame buffers to the raster
// pool.
func (l *loop) release() {
	l.team.Close()
	raster.PutRGB(l.frameB)
	raster.PutRGB(l.frameA)
	raster.PutBayer(l.raw)
}

// simulate runs the two clocks to the end of the track, a crash or the
// time cap: physics every step, a control cycle at every sampling
// instant.
func (l *loop) simulate() (*Result, error) {
	stepMs := l.cfg.Platform.SimStepMs
	for l.t = 0; l.t < l.cfg.MaxTimeS*1000; l.t += stepMs {
		// Actuation due at this instant, before a new capture may
		// schedule the next command: tau ceiled to the step can land
		// exactly on the next sampling instant.
		if l.t >= l.actT-1e-9 {
			l.plant.Command(l.actU)
			if l.met != nil {
				l.met.actuate(l.t, l.actU)
			}
			l.actT = math.Inf(1)
		}
		if l.t >= l.nextFrameMs-1e-9 {
			if err := l.step(); err != nil {
				return nil, err
			}
		}
		start := l.now()
		done := l.physics()
		if l.met != nil {
			l.met.physicsStep(start, time.Now())
		}
		if done {
			break
		}
	}

	res := l.res
	res.CompletedS, res.Frames, res.MAE = l.s, l.frame, res.PerSector.Overall()
	res.Faults, res.Degraded = l.inj.Counts(), l.deg.stats
	if l.inj != nil {
		l.cfg.Obs.Logger().Info("fault injection summary",
			"faults", res.Faults.String(), "held_frames", res.Degraded.HeldFrames,
			"fallback_entries", res.Degraded.FallbackEntries, "fallback_cycles", res.Degraded.FallbackCycles,
			"deadline_misses", res.Degraded.DeadlineMisses)
	}
	return res, nil
}

// now reads the wall clock for stage timing, and only when instrumented.
func (l *loop) now() (t time.Time) {
	if l.met != nil {
		t = time.Now()
	}
	return t
}

// step is one control cycle at a sampling instant. When no sensor reads
// the frame, identification needs no image, so the cycle classifies and
// selects its setting first and then captures and processes only what
// the selected ROI reads; otherwise the sensors classify the processed
// frame. The order moves no bit: every stage's inputs are the same.
func (l *loop) step() error {
	l.watchdog()
	l.cycleT[0] = l.now()
	c := cycle{setting: l.setting, tauMs: l.timing.TauMs}
	switch {
	case l.inj.Dropped(l.frame):
		l.drop(&c)
	case l.imageFree:
		l.classify(&c)
		l.capture(&c)
		l.process(&c)
		l.perceive(&c)
		l.act(&c)
	default:
		l.capture(&c)
		l.process(&c)
		l.classify(&c)
		l.perceive(&c)
		l.act(&c)
	}
	return l.finishCycle(&c)
}

// begin and end stamp the start and end of pipeline stage i of the
// current cycle, when instrumented.
func (l *loop) begin(i int) { l.stageT[i][0] = l.now() }
func (l *loop) end(i int)   { l.stageT[i][1] = l.now() }

// watchdog records a command still pending at the next capture (tau
// stretched past h by an injected overrun, or a retiming that shortened
// h under a command in flight) when the degradation layer is active.
// This cycle's output supersedes the stale command either way.
func (l *loop) watchdog() {
	if !l.deg.active || math.IsInf(l.actT, 1) {
		return
	}
	l.deg.stats.DeadlineMisses++
	if l.met != nil {
		l.met.deadlineMiss.Inc()
	}
	l.cfg.Obs.Logger().Warn("actuation deadline missed",
		"frame", l.frame, "sim_t_ms", l.t, "pending_ms", l.actT)
	l.actT = math.Inf(1)
}

// drop handles a camera blackout: nothing reaches the ISP or perception
// this cycle. It holds the last actuation command (default) or coasts
// the controller's predictor; finishCycle counts the cycle as a
// detection failure and feeds it to the fallback machine.
func (l *loop) drop(c *cycle) {
	c.dropped = true
	c.fault.Add(fault.FrameDrop)
	if l.deg.holdLast {
		c.u, c.held = l.lastU, true
		l.deg.stats.HeldFrames++
	} else {
		c.u = l.ctl.Coast()
	}
	c.ylTrue, _ = l.truthYL()
}

// capture renders the RAW frame's rawSpans with the RAW-domain faults.
func (l *loop) capture(c *cycle) {
	l.begin(renderStage)
	l.setSpans(c.setting.ROI)
	// Adversarial lane-marking occlusion acts at render time: the
	// renderer consults the pure world-space predicate, so the
	// row-parallel render stays byte-identical to the serial one.
	if f, ok := l.inj.Occlusion(l.frame); ok {
		l.occFrac = f
		l.rend.Occlude = l.occFn
		c.fault.Add(fault.LaneOcclude)
	} else {
		l.rend.Occlude = nil
	}
	st := l.plant.St
	l.rend.RenderRAWSpansInto(l.raw, camera.VehiclePose{X: st.X, Y: st.Y, Psi: st.Psi, S: l.s}, l.frameSeed(l.frame), l.rawSpans)
	if sigma, ok := l.inj.Noise(l.frame); ok {
		fault.AddBayerNoise(l.raw, l.rawSpans, sigma, fault.FrameHash(l.cfg.Seed, l.frame))
		c.fault.Add(fault.NoiseBurst)
	}
	l.end(renderStage)
}

// frameSeed is the sensor-noise seed of frame n.
func (l *loop) frameSeed(n int) int64 { return l.cfg.Seed + int64(n)*7919 }

// process runs the ISP over the frame's spans, with the ISP-output
// faults. Then the team draws the next frame's sensor noise while the
// caller detects, controls and steps the plant; should the next frame be
// dropped, the one after draws its own. Posted after the ISP rather than
// after the render, the draw leaves the ISP stages both workers.
func (l *loop) process(c *cycle) {
	l.begin(ispStage)
	c.rgb = l.activeISP.ProcessObservedInto(l.raw, l.frameA, l.frameB, l.spans, l.team, l.cfg.Obs)
	l.rend.DrawAhead(l.frameSeed(l.frame+1), l.drawRows)
	if frac, kinds := l.inj.CorruptFrac(l.frame); kinds != 0 {
		fault.CorruptRGBBand(c.rgb, frac, fault.FrameHash(l.cfg.Seed, l.frame))
		c.fault |= kinds
	}
	l.end(ispStage)
}

// classify is situation identification (Fig. 2), then knob selection
// from the believed situation: the classifiers the policy invokes this
// frame, in Road, Lane, Scene order, each given the processed frame
// (nil when no sensor reads it) and the ground truth. Classifier faults
// (stuck-at / bit flip) overwrite a sensor's verdict at its output, so
// they corrupt the belief exactly when the policy actually invokes that
// classifier. PR and control knobs apply in this cycle, the ISP knob
// next cycle.
func (l *loop) classify(c *cycle) {
	l.begin(classifyStage)
	// Classifier ground truth is what the frame depicts: the visible
	// ground window, starting AT the vehicle, so a frame taken mid-curve
	// shows curve and turn handling holds until the arc has passed.
	c.truth = l.cfg.Track.CameraSituationAhead(l.s, 0, previewM)
	inv := l.policy.Next(l.t)
	for k, on := range [3]bool{inv.Road, inv.Lane, inv.Scene} {
		if !on {
			continue
		}
		start := l.now()
		l.bel[k] = min(max(l.sens[k].Classify(c.rgb, c.truth), 0), numClasses[k]-1)
		if v, kind, ok := l.inj.Class(l.frame, fault.Target(k), l.bel[k], numClasses[k]); ok {
			l.bel[k] = v
			c.fault.Add(kind)
		}
		if l.met != nil {
			l.met.stage(firstClassifierStage+k, start, time.Now())
		}
	}
	c.setting = l.choose()
	l.end(classifyStage)
}

// choose is the knob selector, at start-up and every cycle: the pinned
// setting in characterization mode, else the robust fallback tuning
// while degraded, else the setting characterized for the believed
// situation.
func (l *loop) choose() knobs.Setting {
	sit := world.Situation{Layout: world.RoadLayout(l.bel[0]),
		Lane: world.LaneMarkingForClass(l.bel[1]), Scene: world.Scene(l.bel[2])}
	switch {
	case l.cfg.FixedSetting != nil:
		return *l.cfg.FixedSetting
	case l.deg.inFallback:
		return knobs.FallbackSetting(sit)
	}
	return knobs.CaseSetting(l.cfg.Case, sit, l.cfg.Table)
}

// perceive detects the lane in the selected ROI, scores it against
// ground truth, and gates it: a yL jump beyond what the vehicle can
// produce in one period is an outlier (dash glitch, clutter lock) to
// coast through, until three rejections in a row saturate the gate so a
// genuine change cannot be locked out. A saturated accept is flagged
// forced: the fallback machine counts it as a bad sample.
func (l *loop) perceive(c *cycle) {
	l.begin(detectStage)
	roi, _ := perception.ROIByID(c.setting.ROI)
	c.pres = l.det.Detect(c.rgb, roi, perception.LookAhead)
	var trueOK bool
	if c.ylTrue, trueOK = l.truthYL(); trueOK {
		l.res.Detection.Add(c.pres.YL, c.ylTrue, c.pres.OK && c.pres.CandidatePixels > 0)
	}
	l.end(detectStage)
	l.begin(controlStage)

	c.measOK = c.pres.OK
	if c.measOK && l.haveYl && math.Abs(c.pres.YL-l.ylPrev) > ylGate {
		if l.gateRejects < 3 {
			c.measOK = false
			l.gateRejects++
		} else {
			c.forced = true
			l.gateRejects = 0
		}
	} else if c.measOK {
		l.gateRejects = 0
	}
}

// act computes the command: an LQR step on an accepted measurement, a
// coast on the controller's predictor otherwise. An injected overrun
// stretches this one command's delay; the watchdog records it if it
// slips past the next capture.
func (l *loop) act(c *cycle) {
	if c.measOK {
		l.ylPrev, l.haveYl = c.pres.YL, true
		if l.cfg.UseFeedforward {
			l.curvEMA = 0.7*l.curvEMA + 0.3*c.pres.Curvature
		}
		c.u = l.ctl.Step(c.pres.YL, l.curvEMA)
	} else {
		c.u = l.ctl.Coast()
	}
	if extra, ok := l.inj.Overrun(l.frame); ok {
		c.tauMs += extra
		c.fault.Add(fault.DeadlineOverrun)
	}
}

// finishCycle is the epilogue of every cycle, dropped or processed: it
// schedules the actuation, records the cycle, feeds the fallback machine,
// applies a reconfiguration and advances the frame clock.
func (l *loop) finishCycle(c *cycle) error {
	if !c.measOK {
		l.res.DetectFails++
	}
	// Actuation tau after capture, ceiled to the simulation step.
	l.actT = l.t + l.cfg.Platform.CeilToStep(c.tauMs)
	l.actU, l.lastU = c.u, c.u
	l.end(controlStage)
	l.cycleT[1] = l.stageT[controlStage][1]
	if l.met != nil {
		l.met.cycle(l, c)
	}
	if l.cfg.Trace != nil {
		l.cfg.Trace(TracePoint{
			TimeS: l.t / 1000, S: l.s, Lat: l.lastLat, YLTrue: c.ylTrue, YLMeas: c.pres.YL,
			DetOK: c.measOK, RawDetOK: c.pres.OK, Steer: c.u, Sector: l.cfg.Track.SectorAt(l.s),
			Setting: c.setting, HMs: l.timing.HMs, TauMs: l.timing.TauMs,
			Fault: c.fault.String(), Degraded: l.deg.inFallback,
		})
	}
	// Feed the fallback machine after tracing: a mode flip governs the
	// NEXT cycle's knob selection (one cycle of reconfiguration delay,
	// like the ISP knob).
	if l.deg.observe(c.measOK && !c.forced) && l.met != nil {
		l.met.fallbacks.Inc()
	}
	if c.setting != l.setting {
		if err := l.retune(c.setting); err != nil {
			return err
		}
	}
	l.nextFrameMs += l.timing.HMs
	l.frame++
	return nil
}

// retune applies knob setting k at start-up and on every
// reconfiguration: classifier precision (the classifiers that just ran
// used the old arithmetic), timing, a controller redesigned for them that
// inherits the running one's state, the speed target, and the ISP, which
// the next frame uses (one cycle of ISP reconfiguration delay).
func (l *loop) retune(k knobs.Setting) error {
	for _, c := range l.cnns {
		if err := c.SetPrecision(k.Precision); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	timing, err := l.cfg.Platform.TimingForPrecision(k.ISP, l.perFrame, k.Precision)
	if err != nil {
		return err
	}
	// The controller bank is indexed by the knob speed; gains match the
	// plant once the speed slew completes.
	key := designKey{k.SpeedKmph, timing.HMs, l.cfg.Platform.CeilToStep(timing.TauMs)}
	des, ok := l.designs[key]
	if !ok {
		if des, err = control.NewDesign(vehicle.BMWX5(), key.speed, key.hMs/1000, key.tauMs/1000, perception.LookAhead); err != nil {
			return err
		}
		l.designs[key] = des
	}
	if l.ctl == nil || des != l.ctl.D {
		nc := control.NewController(des)
		if l.ctl != nil {
			nc.CopyStateFrom(l.ctl)
		}
		l.ctl = nc
	}
	l.activeISP, _ = isp.ByID(k.ISP)
	l.timing, l.setting = timing, k
	l.targetSpeed = vehicle.Kmph(k.SpeedKmph)
	l.res.SettingsUsed = append(l.res.SettingsUsed, k)
	return nil
}

// physics advances the plant one step (speed-knob slew with gentle
// acceleration and firm braking, dynamics, localization, the QoC sample)
// and reports whether the run ends: the end of the track, or a crash,
// recorded here.
func (l *loop) physics() bool {
	track, p, dt := l.cfg.Track, l.plant, l.cfg.Platform.SimStepMs/1000
	if p.Vx < l.targetSpeed {
		p.Vx = math.Min(l.targetSpeed, p.Vx+speedAccel*dt)
	} else if p.Vx > l.targetSpeed {
		p.Vx = math.Max(l.targetSpeed, p.Vx-speedDecel*dt)
	}
	p.Step(dt)

	s, lat, ok := track.Locate(p.St.X, p.St.Y, l.s, 10, 15, 8)
	crashed := !ok
	if ok {
		l.s, l.lastLat = s, lat
		// QoC sample: ground-truth lateral deviation at the look-ahead.
		if ylTrue, tok := l.truthYL(); tok {
			l.res.PerSector.Add(track.SectorAt(s), ylTrue)
		}
		crashed = math.Abs(lat) > crashLat || math.Abs(world.NormAngle(p.St.Psi-track.Pose(s).Theta)) > crashHeading
	}
	if crashed {
		l.res.Crashed, l.res.CrashSector, l.res.CrashTimeS = true, track.SectorAt(l.s), l.t/1000
		return true
	}
	return l.s >= l.endS
}

// truthYL computes the ground-truth lateral deviation of the lane center
// at the look-ahead distance in the vehicle frame.
func (l *loop) truthYL() (float64, bool) {
	st := l.plant.St
	px := st.X + perception.LookAhead*math.Cos(st.Psi)
	py := st.Y + perception.LookAhead*math.Sin(st.Psi)
	_, lat, ok := l.cfg.Track.Locate(px, py, l.s, 10, 15, 8)
	if !ok {
		return 0, false
	}
	return -lat, true
}
