package hsas_test

import (
	"testing"

	"hsas"
	"hsas/internal/isp"
	"hsas/internal/mat"
	"hsas/internal/perception"
	"hsas/internal/scheduler"
	"hsas/internal/trace"
)

// TestFacadeSurface exercises the public API end to end at a small scale:
// taxonomy, tracks, knobs, platform timing, one closed-loop run and the
// runtime reconfigurator. The ISP and ROI knob lookups are not part of the
// facade and go through their packages.
func TestFacadeSurface(t *testing.T) {
	if len(hsas.PaperSituations) != 21 {
		t.Fatalf("PaperSituations = %d", len(hsas.PaperSituations))
	}
	if hsas.LookAhead != 5.5 {
		t.Fatalf("LookAhead = %v", hsas.LookAhead)
	}

	track := hsas.NineSectorTrack()
	if track.Length() < 500 {
		t.Fatalf("nine-sector track too short: %v", track.Length())
	}

	xavier := hsas.Xavier()
	tm, err := xavier.TimingFor("S0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tm.HMs != 40 {
		t.Fatalf("case-3 period = %v, want 40 (Table V)", tm.HMs)
	}

	if _, ok := isp.ByID("S3"); !ok {
		t.Fatal("isp.ByID(S3) missing")
	}
	if _, ok := perception.ROIByID(5); !ok {
		t.Fatal("perception.ROIByID(5) missing")
	}

	sit := hsas.Situation{Layout: hsas.Straight, Lane: hsas.LaneMarking{Color: hsas.White, Form: hsas.Continuous}, Scene: hsas.Day}
	res, err := hsas.Run(hsas.SimConfig{
		Track:  hsas.SituationTrack(sit),
		Camera: hsas.ScaledCamera(160, 80),
		Case:   hsas.Case4,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("facade run crashed on straight day")
	}

	r := hsas.NewReconfigurator(hsas.Case4, hsas.PaperTable(), sit)
	r.Observe(int(hsas.RightTurn), -1, -1)
	setting, _ := r.Step()
	if setting.ROI == 1 {
		t.Fatal("reconfigurator did not react to the road classifier")
	}
}

// TestFacadePolicy checks the cases the facade exports against their
// invocation policies.
func TestFacadePolicy(t *testing.T) {
	p := scheduler.ForCase(hsas.CaseVariable)
	if p.PerFrame() != 1 {
		t.Fatalf("variable policy per-frame = %d", p.PerFrame())
	}
	if scheduler.ForCase(hsas.Case4).PerFrame() != 3 {
		t.Fatal("case 4 should invoke 3 classifiers per frame")
	}
}

// TestFacadeExtensions exercises the LQG extension through the facade,
// with the trace recorder and ISP knob list from their packages.
func TestFacadeExtensions(t *testing.T) {
	sit := hsas.Situation{Layout: hsas.Straight, Lane: hsas.LaneMarking{Color: hsas.White, Form: hsas.Continuous}, Scene: hsas.Day}
	track := hsas.SituationTrack(sit)

	rec := &trace.Recorder{}
	res, err := hsas.Run(hsas.SimConfig{
		Track:  track,
		Camera: hsas.ScaledCamera(160, 80),
		Case:   hsas.Case4,
		Seed:   1,
		Trace:  rec.Add,
	})
	if err != nil {
		t.Fatal(err)
	}
	detOK := 0
	for _, p := range rec.Points {
		if p.DetOK {
			detOK++
		}
	}
	if detOK == 0 || len(rec.Points) != res.Frames {
		t.Fatalf("trace wrong: %d of %d points detected, %d frames", detOK, len(rec.Points), res.Frames)
	}

	noise := hsas.NoiseModel{MeasurementVar: 0.15 * 0.15, ProcessVar: 1e-4}
	d, err := hsas.NewLQGDesign(hsas.BMWX5(), 30, 0.025, 0.025, hsas.LookAhead, noise)
	if err != nil {
		t.Fatal(err)
	}
	if mat.SpectralRadius(d.ClosedLoop()) >= 1 {
		t.Fatal("facade LQG design unstable")
	}

	if len(isp.Knobs) != 9 {
		t.Fatal("ISP configs missing")
	}
	xavier := hsas.Xavier()
	if xavier.PowerBudgetW != 30 {
		t.Fatal("Xavier budget wrong")
	}
}
