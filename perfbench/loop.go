package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/cnn"
	"hsas/internal/control"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/raster"
	"hsas/internal/sim"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

// lapSeeds are the seeds the lap's sim seed is derived from: the
// workload seed picks one. About one noise seed in ten crashes a loop
// lap in sector 5, which would change the work measured, so the pool
// holds only seeds whose laps complete on both loop workloads.
var lapSeeds = []int64{1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24}

// smallLapS is the simulated seconds of a smoke-test lap.
const smallLapS = 8

// lapSeed maps a workload seed onto the pool.
func lapSeed(seed int64) int64 {
	n := int64(len(lapSeeds))
	return splitmix(lapSeeds[((seed-1)%n+n)%n], 0)
}

// loopEnv is everything a lap needs besides its seed.
type loopEnv struct {
	track *world.Track
	cam   camera.Camera
	kase  knobs.Case
	table knobs.Table
	// nets holds the trained road, lane and scene classifiers; nil runs
	// oracle sensors.
	nets []*classifier.Classifier
	// maxTimeS caps a lap's simulated time (0: the whole track).
	maxTimeS float64
}

func runLoopRobust(opts options) (*run, error) {
	return runLoop(opts, func() (*loopEnv, error) {
		w, h := 192, 96
		if opts.small {
			w, h = 64, 32
		}
		env := &loopEnv{track: world.NineSectorTrack(), cam: camera.Scaled(w, h), kase: knobs.Case3}
		warmPipeline(env.track, env.cam)
		return env, nil
	})
}

func runLoopCNN(opts options) (*run, error) {
	return runLoop(opts, func() (*loopEnv, error) {
		w, h := 96, 48
		if opts.small {
			w, h = 64, 32
		}
		env := &loopEnv{track: world.NineSectorTrack(), cam: camera.Scaled(w, h), kase: knobs.Case4, table: precisionTable()}
		for _, kind := range []classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene} {
			c, err := trainClassifier(kind, opts.small)
			if err != nil {
				return nil, err
			}
			env.nets = append(env.nets, c)
		}
		warmPipeline(env.track, env.cam)
		return env, nil
	})
}

// precisionTable is Table III with the int8 classifier precision on the
// turn situations and float32 on the straights, so a lap runs both
// arithmetic paths and switches between them.
func precisionTable() knobs.Table {
	t := knobs.PaperTable()
	for sit, s := range t {
		if sit.Layout != world.Straight {
			s.Precision = knobs.PrecisionInt8
			t[sit] = s
		}
	}
	return t
}

// trainClassifier trains one small classifier with fixed seeds and
// builds its int8 companion. Labels need not be accurate: the loop runs
// on oracle labels and the CNN runs in shadow (see shadowSensor).
func trainClassifier(kind classifier.Kind, small bool) (*classifier.Classifier, error) {
	dcfg := classifier.DatasetConfigFor(kind)
	dcfg.N = 48
	tcfg := classifier.TrainConfigFor(kind)
	tcfg.Epochs = 2
	tcfg.Workers = runtime.GOMAXPROCS(0)
	if small {
		dcfg.N, tcfg.Epochs = 12, 1
	}
	c, _, err := classifier.Train(kind, dcfg, tcfg)
	if err != nil {
		return nil, fmt.Errorf("training %v classifier: %w", kind, err)
	}
	if err := c.SetPrecision(knobs.PrecisionInt8); err != nil {
		return nil, err
	}
	if err := c.SetPrecision(knobs.PrecisionFP32); err != nil {
		return nil, err
	}
	c.SetKernelWorkers(runtime.GOMAXPROCS(0))
	return c, nil
}

// warmPipeline runs one frame through render, ISP and detection so
// lazily built tables and pooled frame buffers exist before timing.
func warmPipeline(track *world.Track, cam camera.Camera) {
	rend := camera.NewRenderer(track, cam)
	raw := raster.GetBayer(cam.Width, cam.Height)
	a, b := raster.GetRGB(cam.Width, cam.Height), raster.GetRGB(cam.Width, cam.Height)
	vp := camera.PoseOnTrack(track, 10, 0, 0)
	rend.RenderRAWInto(raw, vp, 1)
	s0, _ := isp.ByID("S0")
	img := s0.ProcessInto(raw, a, b, runtime.GOMAXPROCS(0))
	roi, _ := perception.ROIByID(1)
	perception.NewDetector(perception.NewGeometry(cam)).Detect(img, roi, perception.LookAhead)
	raster.PutBayer(raw)
	raster.PutRGB(a)
	raster.PutRGB(b)
}

// lap is one closed-loop run around the track.
type lap struct {
	res    *sim.Result
	wall   time.Duration
	cycles samples // host time between consecutive Trace callbacks
	alloc  uint64  // bytes allocated during the lap
	agree  [3]int  // shadow CNN labels equal to the oracle's
	digest string

	// Traced laps only.
	points  []sim.TracePoint
	tracer  *obs.Tracer
	sensors []*timedSensor
	misses  uint64 // raster pool misses during the lap
}

// runLap drives one lap through sim.Run. A traced lap also records the
// per-stage spans (Config.Obs), the trace points and per-call classifier
// timings.
func (e *loopEnv) runLap(seed int64, traced bool) (*lap, error) {
	l := &lap{}
	cfg := sim.Config{Track: e.track, Camera: e.cam, Case: e.kase, Table: e.table, Seed: lapSeed(seed), MaxTimeS: e.maxTimeS}
	kinds := []classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene}
	var sens [3]sim.Sensor
	for i, kind := range kinds {
		sens[i] = sim.Oracle{Kind: kind}
		if e.nets != nil {
			sens[i] = &shadowSensor{c: e.nets[i], oracle: sim.Oracle{Kind: kind}, kase: e.kase, table: e.table, agree: &l.agree[i]}
		}
		if traced {
			ts := &timedSensor{inner: sens[i]}
			l.sensors = append(l.sensors, ts)
			sens[i] = ts
		}
	}
	cfg.Sens = sim.Sensors{Road: sens[0], Lane: sens[1], Scene: sens[2]}
	var last time.Time
	cfg.Trace = func(p sim.TracePoint) {
		now := time.Now()
		if !last.IsZero() {
			l.cycles.add(now.Sub(last))
		}
		last = now
		if traced {
			l.points = append(l.points, p)
		}
	}
	if traced {
		l.tracer = obs.NewTracer()
		cfg.Obs = &obs.Observer{Trace: l.tracer}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, misses0 := ms.TotalAlloc, raster.Stats().Misses
	start := time.Now()
	res, err := sim.Run(cfg)
	l.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	l.alloc, l.misses = ms.TotalAlloc-alloc0, raster.Stats().Misses-misses0
	if err != nil {
		return nil, err
	}
	l.res = res
	l.digest = lapDigest(res, l.agree)
	return l, nil
}

// lapDigest hashes everything a lap's outcome is pinned by.
func lapDigest(res *sim.Result, agree [3]int) string {
	n := res.PerSector.Len()
	sectors := make([]float64, n)
	for i := range sectors {
		sectors[i] = res.PerSector.Sector(i + 1)
	}
	b, _ := json.Marshal(struct {
		MAE         float64
		Frames      int
		Crashed     bool
		CrashSector int
		CompletedS  float64
		Sectors     []float64
		Settings    []knobs.Setting
		Agree       [3]int
	}{res.MAE, res.Frames, res.Crashed, res.CrashSector, res.CompletedS, sectors, res.SettingsUsed, agree})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// shadowSensor runs real inference at the knob table's precision for the
// situation shown, counts agreement with the oracle, and returns the
// oracle label so the lap stays on a deterministic course.
type shadowSensor struct {
	c      *classifier.Classifier
	oracle sim.Oracle
	kase   knobs.Case
	table  knobs.Table
	agree  *int
}

func (s *shadowSensor) Classify(img *raster.RGB, truth world.Situation) int {
	want := s.oracle.Classify(img, truth)
	if p := knobs.CaseSetting(s.kase, truth, s.table).Precision; p != s.c.Precision() {
		if err := s.c.SetPrecision(p); err != nil {
			panic(err) // both precisions were built in set-up
		}
	}
	if s.c.Classify(img) == want {
		*s.agree++
	}
	return want
}

// timedSensor times each Classify call of the sensor it wraps, by the
// precision it ran at, and keeps every 97th frame a CNN saw (at most
// keptFrames) for the per-layer replay.
type timedSensor struct {
	inner  sim.Sensor
	calls  [2]samples // by precision: fp32, int8
	frames []*raster.RGB
	n      int
}

const keptFrames = 24

func (t *timedSensor) Classify(img *raster.RGB, truth world.Situation) int {
	start := time.Now()
	v := t.inner.Classify(img, truth)
	d := time.Since(start)
	p := 0
	if s, ok := t.inner.(*shadowSensor); ok {
		if s.c.Precision() == knobs.PrecisionInt8 {
			p = 1
		}
		if t.n%97 == 0 && len(t.frames) < keptFrames {
			t.frames = append(t.frames, img.Clone())
		}
		t.n++
	}
	t.calls[p].add(d)
	return v
}

// runLoop is the shared loop workload: set up, run untraced laps for the
// budget (half of it when tracing), then one traced lap.
func runLoop(opts options, setup func() (*loopEnv, error)) (*run, error) {
	setupS, env, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}
	if opts.small {
		env.maxTimeS = smallLapS
	}
	r := &run{metrics: map[string]float64{}}
	want := opts.golden(opts.workload)

	budget := opts.budget
	if opts.trace {
		budget /= 2
	}
	var laps []*lap
	var elapsed time.Duration
	for len(laps) == 0 || elapsed+laps[len(laps)-1].wall <= budget {
		l, err := env.runLap(opts.seed, false)
		if err != nil {
			return nil, fmt.Errorf("lap %d: %w", len(laps), err)
		}
		elapsed += l.wall
		if want == "" {
			want = l.digest // later laps and the traced lap must repeat it
			fmt.Fprintf(os.Stderr, "perfbench: %s lap digest %s (seed %d)\n", opts.workload, want, opts.seed)
		}
		r.op(l.digest == want && !l.res.Crashed, "lap %d digest %s (crashed %v), want %s", len(laps), l.digest, l.res.Crashed, want)
		laps = append(laps, l)
	}

	var frames int
	var cycles samples
	var allocs []float64
	for _, l := range laps {
		frames += l.res.Frames
		cycles.d = append(cycles.d, l.cycles.d...)
		allocs = append(allocs, float64(l.alloc)/1e6)
	}
	fps := float64(frames) / elapsed.Seconds()
	r.metrics["setup_s"] = setupS
	r.metrics["frames_per_s"] = fps
	r.metrics["cold_jobs_per_s"] = float64(len(laps)) / elapsed.Seconds()
	r.metrics["latency_p50_ms"] = cycles.quantile(0.50, time.Millisecond)
	r.metrics["alloc_mb"] = median(allocs)
	if !opts.trace {
		return r, nil
	}

	l, err := env.runLap(opts.seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced lap: %w", err)
	}
	r.op(l.digest == want, "traced lap digest %s differs from the untraced %s", l.digest, want)
	r.metrics = zeroPerLayer()
	r.metrics["latency.p95_ms"] = cycles.quantile(0.95, time.Millisecond)
	env.attribute(r, l)
	r.metrics["loop.trace_overhead_fps"] = float64(l.res.Frames)/l.wall.Seconds() - fps
	r.metrics["error_rate"] = float64(r.failed) / float64(r.attempted)
	return r, nil
}

// attribute fills the per-layer metrics of a traced lap: the stage spans
// the sim emits through Config.Obs, the classifier calls timed at the
// Sensor seam, and replays of the layers those seams hide.
func (e *loopEnv) attribute(r *run, l *lap) {
	m := r.metrics
	wall := l.wall.Seconds()
	spans := map[string]*samples{}
	span := func(name string) *samples {
		if spans[name] == nil {
			spans[name] = &samples{}
		}
		return spans[name]
	}
	for _, s := range l.tracer.Spans() {
		if s.Phase == "X" {
			span(s.Name).add(time.Duration(s.Dur) * time.Microsecond)
		}
	}
	layer := func(name string, s *samples, unit time.Duration, suffix string) {
		m[name+suffix] = s.p50(unit)
		m[name+".share"] = s.total().Seconds() / wall
	}
	layer("camera.render", span("render"), time.Millisecond, "_ms")
	layer("isp.total", span("isp"), time.Millisecond, "_ms")
	for i, id := range []string{"DM", "DN", "CM", "GM", "TM"} {
		layer("isp."+ispStages[i], span(id), time.Millisecond, "_ms")
	}
	layer("perception.detect", span("detect"), time.Millisecond, "_ms")

	attributed := span("render").total() + span("isp").total() + span("detect").total() + span("control").total()
	for i, ts := range l.sensors {
		for p := range precisionNames {
			layer("classifier."+classifierKinds[i]+"."+precisionNames[p], &ts.calls[p], time.Millisecond, "_ms")
			attributed += ts.calls[p].total()
		}
		m["classifier."+classifierKinds[i]+".agree"] = float64(l.agree[i])
	}

	// control.step: per-call cost from a replay, share from the in-run
	// "control" span (gating, LQR step and actuation scheduling).
	steps, designs, nDesigns := replayControl(l.points)
	m["control.step_us"] = steps.p50(time.Microsecond)
	m["control.step.share"] = span("control").total().Seconds() / wall
	m["control.design_ms"] = designs.p50(time.Millisecond)
	m["control.designs"] = float64(nDesigns)

	phys := replayPhysics(e.track, l.points)
	layer("physics.step", phys, time.Microsecond, "_us")
	m["physics.steps"] = float64(len(phys.d))
	attributed += phys.total()

	if e.nets != nil {
		for i, ts := range l.sensors {
			for j, s := range replayLayers(e.nets[i], ts.frames) {
				m[fmt.Sprintf("cnn.%s.L%d_ms", classifierKinds[i], j)] = s.p50(time.Millisecond)
			}
		}
	}
	m["loop.frames"] = float64(l.res.Frames)
	m["raster.pool_misses"] = float64(l.misses)
	unattributed := 1 - attributed.Seconds()/wall
	m["loop.unattributed_share"] = unattributed
	r.check(unattributed <= 0.05, "named layers cover %.1f%% of the traced lap, want at least 95%%", 100*(1-unattributed))
}

// replayControl re-runs the controller on the measurements the traced
// lap consumed, and designs every distinct controller the lap used.
func replayControl(points []sim.TracePoint) (steps, designs samples, n int) {
	type key struct{ speed, h, tau float64 }
	plat, plant := platform.Xavier(), vehicle.BMWX5()
	ctls := map[key]*control.Controller{}
	for _, p := range points {
		k := key{p.Setting.SpeedKmph, p.HMs, plat.CeilToStep(p.TauMs)}
		ctl := ctls[k]
		if ctl == nil {
			start := time.Now()
			d, err := control.NewDesign(plant, k.speed, k.h/1000, k.tau/1000, perception.LookAhead)
			designs.add(time.Since(start))
			if err != nil {
				continue
			}
			ctl = control.NewController(d)
			ctls[k] = ctl
		}
		if p.DetOK {
			start := time.Now()
			ctl.Step(p.YLMeas, 0)
			steps.add(time.Since(start))
		}
	}
	return steps, designs, len(ctls)
}

// replayPhysics re-integrates the plant between consecutive control
// cycles of the traced lap, from each cycle's recorded pose and command,
// timing one physics step as the sim performs it: Plant.Step, the two
// Track.Locate calls and the tangent lookup.
func replayPhysics(track *world.Track, points []sim.TracePoint) *samples {
	const stepS = 0.005
	out := &samples{}
	bmw := vehicle.BMWX5()
	for i := 0; i+1 < len(points); i++ {
		p := points[i]
		vp := camera.PoseOnTrack(track, p.S, p.Lat, 0)
		plant := vehicle.NewPlant(bmw, vehicle.Kmph(p.Setting.SpeedKmph), vehicle.State{X: vp.X, Y: vp.Y, Psi: vp.Psi})
		plant.Command(p.Steer)
		s := p.S
		n := int(math.Round((points[i+1].TimeS - p.TimeS) / stepS))
		for j := 0; j < n; j++ {
			start := time.Now()
			plant.Step(stepS)
			ns, _, ok := track.Locate(plant.St.X, plant.St.Y, s, 10, 15, 8)
			px := plant.St.X + perception.LookAhead*math.Cos(plant.St.Psi)
			py := plant.St.Y + perception.LookAhead*math.Sin(plant.St.Psi)
			track.Locate(px, py, ns, 10, 15, 8)
			track.Pose(ns)
			out.add(time.Since(start))
			if ok {
				s = ns
			}
		}
	}
	return out
}

// replayLayers feeds kept frames through the classifier's float32
// network one layer at a time (Network.Layers[i].Forward). The int8
// network's layers are not exported, so only the float32 split exists.
func replayLayers(c *classifier.Classifier, frames []*raster.RGB) []*samples {
	out := make([]*samples, len(c.Net.Layers))
	for i := range out {
		out[i] = &samples{}
	}
	small := raster.NewRGB(c.InW, c.InH)
	for _, f := range frames {
		var x *cnn.Tensor = classifier.ToTensor(f.ResizeInto(small))
		for i, layer := range c.Net.Layers {
			start := time.Now()
			x = layer.Forward(x, false)
			out[i].add(time.Since(start))
		}
	}
	return out
}
