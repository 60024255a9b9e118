package sim

import (
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/fault"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// constSensor always reports the same class, regardless of the frame —
// a worst-case classifier for failure injection.
type constSensor struct{ class int }

func (c constSensor) Classify(*raster.RGB, world.Situation) int { return c.class }

// TestMisclassifyingRoadSensorDegrades injects a road classifier that
// always reports "straight": on a turn track the system behaves like
// case 1 (fixed straight knobs) and must fail where case 1 fails —
// graceful degradation, not a panic.
func TestMisclassifyingRoadSensorDegrades(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	sens := OracleSensors()
	sens.Road = constSensor{int(world.Straight)}
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: camera.Scaled(192, 96),
		Case:   knobs.Case4,
		Sens:   sens,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("blinded road classifier should fail on the turn like case 1")
	}

	// With the correct sensor the same configuration completes.
	good, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: camera.Scaled(192, 96),
		Case:   knobs.Case4,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if good.Crashed {
		t.Fatal("oracle-sensed run should complete")
	}
}

// TestOutOfRangeSensorClamped: sensors returning garbage class indices
// must be clamped, not crash the run.
func TestOutOfRangeSensorClamped(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	sens := Sensors{
		Road:  constSensor{-5},
		Lane:  constSensor{99},
		Scene: constSensor{1000},
	}
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: camera.Scaled(160, 80),
		Case:   knobs.Case4,
		Sens:   sens,
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("garbage sensor outputs errored the run: %v", err)
	}
	if res.Frames == 0 {
		t.Fatal("run did not progress")
	}
}

// TestFixedSettingMode: the characterization mode must hold its knobs for
// the whole run.
func TestFixedSettingMode(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: world.Day}
	setting := knobs.Setting{ISP: "S5", ROI: 1, SpeedKmph: 50}
	var settings []knobs.Setting
	res, err := Run(Config{
		Track:            world.SituationTrack(sit),
		Camera:           camera.Scaled(160, 80),
		Seed:             1,
		FixedSetting:     &setting,
		FixedClassifiers: 3,
		Trace: func(p TracePoint) {
			settings = append(settings, p.Setting)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("fixed-setting run crashed on a straight")
	}
	for _, s := range settings {
		if s != setting {
			t.Fatalf("fixed setting drifted to %v", s)
		}
	}
	if len(res.SettingsUsed) != 1 {
		t.Fatalf("settings used = %v", res.SettingsUsed)
	}
}

// TestBadFixedISPErrors: an unknown ISP id in the fixed setting must be
// reported, not panic.
func TestBadFixedISPErrors(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	setting := knobs.Setting{ISP: "S99", ROI: 1, SpeedKmph: 50}
	if _, err := Run(Config{
		Track:        world.SituationTrack(sit),
		Camera:       camera.Scaled(160, 80),
		FixedSetting: &setting,
	}); err == nil {
		t.Fatal("unknown ISP accepted")
	}
}

// turnConfig is the fault-matrix baseline: case 4 on the right-turn
// track, the hardest paper situation for a degraded sensing pipeline.
func turnConfig() Config {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	return Config{
		Track:  world.SituationTrack(sit),
		Camera: camera.Scaled(192, 96),
		Case:   knobs.Case4,
		Seed:   1,
	}
}

// TestFaultMatrix runs every injectable fault class on the turn track.
// The contract is graceful degradation: the run must complete without
// panicking (crashed or recovered are both acceptable outcomes), the
// injector must count events of that class, and every sim counter must
// agree with the Result.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		spec string
		kind fault.Kind
	}{
		{"drop@40-60", fault.FrameDrop},
		{"drop:p=0.2", fault.FrameDrop},
		{"noise:mag=0.3@30-90", fault.NoiseBurst},
		{"isp:rows=0.5@30-90", fault.ISPCorrupt},
		{"stuck:road=0@30-", fault.ClassStuck},
		{"flip:lane,p=0.5", fault.ClassFlip},
		{"overrun:ms=60@20-80", fault.DeadlineOverrun},
		{"corr:road,mag=0.4,p=0.5@20-90", fault.Correlated},
		{"occlude:frac=0.6@30-", fault.LaneOcclude},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			sched, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			cfg := turnConfig()
			cfg.Faults = sched
			cfg.Obs = &obs.Observer{Metrics: reg}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("fault %q errored the run: %v", tc.spec, err)
			}
			if res.Frames == 0 {
				t.Fatal("run did not progress")
			}
			if res.Faults[tc.kind] == 0 {
				t.Fatalf("fault %q injected no %s events: %s", tc.spec, tc.kind, res.Faults)
			}
			checkSimCounters(t, reg, res)
		})
	}
}

// TestHoldLastBridgesDrops: with the default degradation policy a drop
// window is bridged by re-issuing the last command, and every dropped
// frame is visible as a DetectFail, a "drop" trace annotation, a sim
// counter increment and a "cycle" span without stage spans.
func TestHoldLastBridgesDrops(t *testing.T) {
	sched, err := fault.ParseSpec("drop@40-50")
	if err != nil {
		t.Fatal(err)
	}
	var dropPts, degradedPts int
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	cfg := turnConfig()
	cfg.Faults = sched
	cfg.Obs = &obs.Observer{Metrics: reg, Trace: tr}
	cfg.Trace = func(p TracePoint) {
		if p.Fault == "drop" {
			dropPts++
			if p.DetOK {
				t.Error("dropped frame traced with DetOK=true")
			}
		}
		if p.Degraded {
			degradedPts++
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := int(res.Faults[fault.FrameDrop])
	if drops == 0 {
		t.Fatal("window injected no drops")
	}
	if res.Degraded.HeldFrames != drops {
		t.Fatalf("HeldFrames = %d, want one per drop (%d)", res.Degraded.HeldFrames, drops)
	}
	if dropPts != drops {
		t.Fatalf("trace shows %d drop annotations for %d drops", dropPts, drops)
	}
	if res.DetectFails < drops {
		t.Fatalf("DetectFails = %d does not include the %d drops", res.DetectFails, drops)
	}
	checkSimCounters(t, reg, res)
	// Every cycle has a "cycle" span, a dropped one tagged with its
	// fault; only processed cycles record stage spans and samples.
	spans := map[string]int{}
	for _, s := range tr.Spans() {
		spans[s.Name]++
		if s.Name == "cycle" && s.Args["fault"] == "drop" {
			spans["cycle/drop"]++
		}
	}
	if spans["cycle"] != res.Frames || spans["cycle/drop"] != drops {
		t.Fatalf("cycle spans = %d (%d tagged drop), want %d (%d)", spans["cycle"], spans["cycle/drop"], res.Frames, drops)
	}
	for _, stage := range stageNames {
		want := res.Frames - drops
		if strings.HasPrefix(stage, "classify.") {
			want = spans[stage] // per invocation; TestObservedRunSpansAndMetrics counts them
		}
		n := reg.Histogram("hsas_sim_stage_seconds", "", nil, obs.L("stage", stage)).Count()
		if spans[stage] != want || n != int64(want) || want > res.Frames-drops {
			t.Fatalf("stage %q: %d spans, %d samples, want %d (%d processed cycles)", stage, spans[stage], n, want, res.Frames-drops)
		}
	}

	// DisableHoldLast coasts instead: the run must still complete and
	// count zero held frames.
	cfg2 := turnConfig()
	cfg2.Faults = sched
	cfg2.Degrade = Degradation{Enabled: true, DisableHoldLast: true}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded.HeldFrames != 0 {
		t.Fatalf("coast policy held %d frames", res2.Degraded.HeldFrames)
	}
}

// checkSimCounters asserts every sim counter in reg against the Result
// field it mirrors.
func checkSimCounters(t *testing.T, reg *obs.Registry, res *Result) {
	t.Helper()
	type counter struct {
		name  string
		label []obs.Label
		want  int64
	}
	counters := []counter{
		{"hsas_sim_cycles_total", nil, int64(res.Frames)},
		{"hsas_sim_detect_fail_total", nil, int64(res.DetectFails)},
		{"hsas_sim_hold_last_total", nil, int64(res.Degraded.HeldFrames)},
		{"hsas_sim_fallback_total", nil, int64(res.Degraded.FallbackEntries)},
		{"hsas_sim_deadline_miss_total", nil, int64(res.Degraded.DeadlineMisses)},
		{"hsas_sim_reconfig_total", nil, int64(len(res.SettingsUsed) - 1)},
	}
	for _, k := range fault.Kinds() {
		counters = append(counters, counter{"hsas_fault_injected_total", []obs.Label{obs.L("kind", k.String())}, res.Faults[k]})
	}
	for _, c := range counters {
		if got := reg.Counter(c.name, "", c.label...).Value(); got != c.want {
			t.Errorf("%s%v = %d, want %d from the Result", c.name, c.label, got, c.want)
		}
	}
}

// TestFallbackEngagesUnderCorruption: a long heavy-corruption burst must
// push the degradation machine into the robust fallback tuning and out
// again once the burst ends.
func TestFallbackEngagesUnderCorruption(t *testing.T) {
	sched, err := fault.ParseSpec("isp:rows=0.9@40-120")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := turnConfig()
	cfg.Faults = sched
	cfg.Obs = &obs.Observer{Metrics: reg}
	var fallbackTrace int
	cfg.Trace = func(p TracePoint) {
		if p.Degraded {
			fallbackTrace++
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.FallbackEntries == 0 {
		t.Fatalf("heavy corruption never triggered fallback: %+v (faults %s)", res.Degraded, res.Faults)
	}
	if res.Degraded.FallbackCycles == 0 || fallbackTrace == 0 {
		t.Fatalf("fallback entered but no cycles recorded: %+v, trace %d", res.Degraded, fallbackTrace)
	}
	fb := reg.Counter("hsas_sim_fallback_total", "entries into the robust fallback tuning")
	if int(fb.Value()) != res.Degraded.FallbackEntries {
		t.Fatalf("obs fallback counter %d != stats %d", fb.Value(), res.Degraded.FallbackEntries)
	}
}

// TestOverrunTripsWatchdog: an overrun larger than the sampling period
// leaves the actuation pending at the next capture; the watchdog must
// record the miss (not panic) and the command must still be superseded.
func TestOverrunTripsWatchdog(t *testing.T) {
	sched, err := fault.ParseSpec("overrun:ms=80@20-60")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := turnConfig()
	cfg.Faults = sched
	cfg.Obs = &obs.Observer{Metrics: reg}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.DeadlineMisses == 0 {
		t.Fatalf("80ms overruns missed no deadlines: %+v", res.Degraded)
	}
	dm := reg.Counter("hsas_sim_deadline_miss_total", "actuation deadlines missed (watchdog)")
	if int(dm.Value()) != res.Degraded.DeadlineMisses {
		t.Fatalf("obs deadline counter %d != stats %d", dm.Value(), res.Degraded.DeadlineMisses)
	}
}

// TestNilScheduleKeepsDegradationSilent: without a schedule or explicit
// Degrade.Enabled, the degradation machinery must stay inert — all-zero
// stats and no fault annotations in the trace.
func TestNilScheduleKeepsDegradationSilent(t *testing.T) {
	cfg := turnConfig()
	cfg.Trace = func(p TracePoint) {
		if p.Fault != "" || p.Degraded {
			t.Errorf("clean run traced fault=%q degraded=%v", p.Fault, p.Degraded)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != (DegradationStats{}) {
		t.Fatalf("clean run recorded degradation: %+v", res.Degraded)
	}
	if res.Faults.Total() != 0 {
		t.Fatalf("clean run counted faults: %s", res.Faults)
	}
}

// TestOcclusionDegradesDetection: with the lane paint fully occluded
// the renderer draws bare asphalt where the markings were, so the
// detector loses its measurement stream; with a zero fraction the run
// is visually identical to fault-free.
func TestOcclusionDegradesDetection(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	mk := func(spec string) Config {
		cfg := Config{
			Track:  world.SituationTrack(sit),
			Camera: camera.Scaled(192, 96),
			Case:   knobs.Case1,
			Seed:   1,
		}
		if spec != "" {
			sched, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
		}
		return cfg
	}

	base, err := Run(mk(""))
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Run(mk("occlude:frac=1"))
	if err != nil {
		t.Fatal(err)
	}
	if blind.DetectFails <= base.DetectFails {
		t.Fatalf("full occlusion: DetectFails %d, fault-free baseline %d — occlusion did not blind the detector",
			blind.DetectFails, base.DetectFails)
	}
	if blind.Faults[fault.LaneOcclude] == 0 {
		t.Fatal("no occlusion events counted")
	}

	// frac=0 must reproduce the fault-free imagery: the schedule still
	// activates the degradation layer, but detection sees no occlusion.
	clear, err := Run(mk("occlude:frac=0"))
	if err != nil {
		t.Fatal(err)
	}
	if clear.DetectFails != base.DetectFails || clear.MAE != base.MAE {
		t.Fatalf("frac=0 drifted from fault-free: MAE %g vs %g, DetectFails %d vs %d",
			clear.MAE, base.MAE, clear.DetectFails, base.DetectFails)
	}
}
