package sim

import (
	"math"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/knobs"
	"hsas/internal/platform"
	"hsas/internal/world"
)

// testCam keeps closed-loop tests fast; the bench harness and cmd/figures
// run at the paper's 512×256.
func testCam() camera.Camera { return camera.Scaled(192, 96) }

func run(t *testing.T, sit world.Situation, c knobs.Case, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   c,
		Seed:   seed,
	})
	if err != nil {
		t.Fatalf("Run(%v, %v): %v", sit, c, err)
	}
	return res
}

func TestStraightDayAllCases(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	for _, c := range []knobs.Case{knobs.Case1, knobs.Case2, knobs.Case3, knobs.Case4, knobs.CaseVariable} {
		res := run(t, sit, c, 1)
		if res.Crashed {
			t.Fatalf("%v crashed on a straight day road", c)
		}
		if res.MAE > 0.05 {
			t.Fatalf("%v MAE = %v on the easiest situation", c, res.MAE)
		}
		if res.Frames == 0 || res.CompletedS < 70 {
			t.Fatalf("%v did not complete: %+v", c, res)
		}
	}
}

// TestCase1CrashesOnTurn reproduces the central robustness result: the
// static baseline (fixed ROI 1, fixed 50 km/h) fails on a turn sector
// while the situation-aware cases complete it (Sec. IV-C, Fig. 6).
func TestCase1CrashesOnTurn(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	c1 := run(t, sit, knobs.Case1, 1)
	if !c1.Crashed {
		t.Fatalf("case 1 completed a turn it must fail: %+v", c1)
	}
	if c1.CrashSector != 2 {
		t.Fatalf("case 1 crashed in sector %d, want 2 (the arc)", c1.CrashSector)
	}
	for _, c := range []knobs.Case{knobs.Case2, knobs.Case3, knobs.Case4} {
		res := run(t, sit, c, 1)
		if res.Crashed {
			t.Fatalf("%v crashed on a continuous-lane turn", c)
		}
	}
}

// TestISPApproximationImprovesQoC reproduces the case 3 -> case 4
// mechanism: situation-specific ISP approximation reduces tau and h,
// improving MAE (Sec. IV-C/D).
func TestISPApproximationImprovesQoC(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	c3 := run(t, sit, knobs.Case3, 1)
	c4 := run(t, sit, knobs.Case4, 1)
	if c3.Crashed || c4.Crashed {
		t.Fatal("cases 3/4 must complete the turn")
	}
	if c4.MAE >= c3.MAE {
		t.Fatalf("case 4 (%.4f) not better than case 3 (%.4f)", c4.MAE, c3.MAE)
	}
}

func TestNightAndDarkRobust(t *testing.T) {
	for _, scene := range []world.Scene{world.Night, world.Dark} {
		sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: scene}
		for _, c := range []knobs.Case{knobs.Case1, knobs.Case3, knobs.Case4} {
			res := run(t, sit, c, 1)
			if res.Crashed {
				t.Fatalf("%v crashed at %v", c, scene)
			}
			if res.MAE > 0.15 {
				t.Fatalf("%v MAE = %v at %v", c, res.MAE, scene)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: world.Day}
	a := run(t, sit, knobs.Case4, 7)
	b := run(t, sit, knobs.Case4, 7)
	if a.MAE != b.MAE || a.Frames != b.Frames || a.Crashed != b.Crashed {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(t, sit, knobs.Case4, 8)
	if a.MAE == c.MAE {
		t.Fatal("different seeds produced identical MAE (noise not applied?)")
	}
}

// TestVariableInvocationFasterSampling: the Sec. IV-E scheme runs one
// classifier per frame, so its pipeline period is shorter and it captures
// more frames over the same track than case 4.
func TestVariableInvocationFasterSampling(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	c4 := run(t, sit, knobs.Case4, 1)
	cv := run(t, sit, knobs.CaseVariable, 1)
	if cv.Crashed {
		t.Fatal("variable invocation crashed on straight day")
	}
	if cv.Frames <= c4.Frames {
		t.Fatalf("variable (%d frames) not sampling faster than case 4 (%d)", cv.Frames, c4.Frames)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run without a track did not error")
	}
	// A zero physics step would never advance the clock.
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	if _, err := Run(Config{Track: world.SituationTrack(sit), Platform: platform.Platform{Name: "no step"}}); err == nil {
		t.Fatal("Run with a zero SimStepMs did not error")
	}
}

func TestTraceAndSettings(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	var points int
	var roiSeen = map[int]bool{}
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   knobs.Case3,
		Seed:   1,
		Trace: func(p TracePoint) {
			points++
			roiSeen[p.Setting.ROI] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != res.Frames {
		t.Fatalf("trace points %d != frames %d", points, res.Frames)
	}
	// The run must have reconfigured from the straight ROI to a turn ROI.
	if !roiSeen[1] || !roiSeen[2] {
		t.Fatalf("expected ROI 1 and 2 in trace, got %v", roiSeen)
	}
	if len(res.SettingsUsed) < 2 {
		t.Fatalf("no reconfiguration recorded: %v", res.SettingsUsed)
	}
}

// TestSpeedKnobApplied: turn situations drive at 30 km/h, straights at 50
// (Table III), which shows up as fewer meters per frame in turns.
func TestSpeedKnobApplied(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	var sawSlow bool
	_, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   knobs.Case2,
		Seed:   1,
		Trace: func(p TracePoint) {
			if p.Setting.SpeedKmph == 30 {
				sawSlow = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSlow {
		t.Fatal("speed knob never switched to 30 km/h on a turn")
	}
}

// TestCNNSensorsInTheLoop closes the loop with real trained classifiers
// instead of oracles on a short straight run.
func TestCNNSensorsInTheLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short")
	}
	sens := Sensors{}
	for _, kind := range []classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene} {
		dcfg := classifier.DatasetConfigFor(kind)
		dcfg.N = 200
		dcfg.Seed = 5
		if kind != classifier.Lane {
			dcfg.InW, dcfg.InH = 32, 16 // lane keeps its higher default
		}
		tcfg := classifier.TrainConfigFor(kind)
		tcfg.Epochs = tcfg.Epochs * 2 / 3
		c, rep, err := classifier.Train(kind, dcfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ValAccuracy < 0.5 {
			t.Fatalf("%v classifier too weak for the loop: %v", kind, rep.ValAccuracy)
		}
		switch kind {
		case classifier.Road:
			sens.Road = CNN{c}
		case classifier.Lane:
			sens.Lane = CNN{c}
		default:
			sens.Scene = CNN{c}
		}
	}
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   knobs.Case4,
		Seed:   1,
		Sens:   sens,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("CNN-in-the-loop crashed on straight day")
	}
	if res.MAE > 0.2 {
		t.Fatalf("CNN-in-the-loop MAE = %v", res.MAE)
	}
}

func TestOracleSensorLabels(t *testing.T) {
	sit := world.Situation{Layout: world.LeftTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Continuous}, Scene: world.Dusk}
	s := OracleSensors()
	if s.Road.Classify(nil, sit) != int(world.LeftTurn) {
		t.Fatal("road oracle wrong")
	}
	if s.Lane.Classify(nil, sit) != 2 {
		t.Fatal("lane oracle wrong")
	}
	if s.Scene.Classify(nil, sit) != int(world.Dusk) {
		t.Fatal("scene oracle wrong")
	}
	// Out-of-taxonomy lane falls back to class 0 instead of panicking.
	bad := sit
	bad.Lane = world.LaneMarking{Color: world.White, Form: world.DoubleContinuous}
	if got := s.Lane.Classify(nil, bad); got != 0 {
		t.Fatalf("out-of-taxonomy lane = %d", got)
	}
}

func TestDetectionAccuracyTracked(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	res := run(t, sit, knobs.Case1, 1)
	// An accuracy with no samples reads 0, so this also shows that
	// samples were recorded.
	if res.Detection.Value() < 0.9 {
		t.Fatalf("day straight detection accuracy = %v", res.Detection.Value())
	}
}

func TestMAEMatchesPerSector(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	res := run(t, sit, knobs.Case3, 1)
	if math.Abs(res.MAE-res.PerSector.Overall()) > 1e-12 {
		t.Fatal("MAE does not match per-sector aggregate")
	}
	// Turn sector MAE must dominate the lead-in's.
	if res.PerSector.Sector(2) <= res.PerSector.Sector(1) {
		t.Fatalf("turn sector MAE %v not above lead-in %v",
			res.PerSector.Sector(2), res.PerSector.Sector(1))
	}
}

// TestPrecisionKnobTightensTiming: a fixed int8 setting runs the same
// closed loop as the fp32 one but with the quantized classifier runtime
// charged to the pipeline — tau and h drop, so the run captures at least
// as many frames. With oracle sensors (no CNNs in the loop) the precision
// switch is purely a timing change.
func TestPrecisionKnobTightensTiming(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	runFixed := func(precision string) (*Result, float64, float64) {
		t.Helper()
		var h, tau float64
		res, err := Run(Config{
			Track:            world.SituationTrack(sit),
			Camera:           testCam(),
			FixedSetting:     &knobs.Setting{ISP: "S0", ROI: 3, SpeedKmph: 30, Precision: precision},
			FixedClassifiers: 3,
			Seed:             1,
			Trace:            func(p TracePoint) { h, tau = p.HMs, p.TauMs },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, h, tau
	}

	fp32, hF, tauF := runFixed("")
	int8, hQ, tauQ := runFixed(knobs.PrecisionInt8)
	if fp32.Crashed || int8.Crashed {
		t.Fatalf("fixed straight run crashed: fp32 %v int8 %v", fp32.Crashed, int8.Crashed)
	}
	if tauQ >= tauF {
		t.Fatalf("int8 tau %v not below fp32 tau %v", tauQ, tauF)
	}
	if hQ > hF {
		t.Fatalf("int8 h %v above fp32 h %v", hQ, hF)
	}
	if int8.Frames < fp32.Frames {
		t.Fatalf("int8 captured %d frames, fp32 %d — tighter period must not lose frames", int8.Frames, fp32.Frames)
	}

	// Unknown precision fails fast instead of simulating with a bogus tau.
	_, err := Run(Config{
		Track:            world.SituationTrack(sit),
		Camera:           testCam(),
		FixedSetting:     &knobs.Setting{ISP: "S0", ROI: 3, SpeedKmph: 30, Precision: "int4"},
		FixedClassifiers: 3,
		Seed:             1,
	})
	if err == nil {
		t.Fatal("bogus precision accepted by Run")
	}
}
