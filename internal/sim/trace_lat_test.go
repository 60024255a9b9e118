package sim

import (
	"math"
	"testing"

	"hsas/internal/knobs"
	"hsas/internal/world"
)

// TestTraceLatCarriesLocalization pins the TracePoint.Lat fix: the trace
// must carry the vehicle's actual lateral offset (0 at the centered
// start, then updated from every physics localization), not a constant.
// The first sample reports the start, later samples move with the
// vehicle, and the controller keeps |Lat| near the lane center.
func TestTraceLatCarriesLocalization(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	var pts []TracePoint
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   knobs.Case4,
		Seed:   1,
		Trace:  func(p TracePoint) { pts = append(pts, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("straight-day run crashed")
	}
	if len(pts) < 20 {
		t.Fatalf("only %d trace points", len(pts))
	}
	if pts[0].Lat != 0 {
		t.Fatalf("first sample Lat = %v, want the centered start 0", pts[0].Lat)
	}
	distinct := map[float64]bool{}
	for _, p := range pts {
		distinct[p.Lat] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("Lat takes only %d distinct values over %d samples — still a constant?", len(distinct), len(pts))
	}
	// Steady state: the loop holds the vehicle near the lane center.
	tail := pts[len(pts)-10:]
	for _, p := range tail {
		if math.Abs(p.Lat) > 0.4 {
			t.Fatalf("late sample Lat = %v, loop did not hold the center", p.Lat)
		}
	}
}

// TestTraceDetOKConsistency pins the det_ok semantics fix at the source:
// over a run with detection failures, the number of DetOK=false samples
// must equal Result.DetectFails exactly, and the innovation gate can
// only clear, never set, the flag relative to the raw detector verdict.
func TestTraceDetOKConsistency(t *testing.T) {
	// Night dark scene at case 1 (no reconfiguration) stresses detection.
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Dark}
	var pts []TracePoint
	res, err := Run(Config{
		Track:  world.SituationTrack(sit),
		Camera: testCam(),
		Case:   knobs.Case4,
		Seed:   3,
		Trace:  func(p TracePoint) { pts = append(pts, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, p := range pts {
		if !p.DetOK {
			off++
		}
		if p.DetOK && !p.RawDetOK {
			t.Fatalf("sample %d: gated OK without raw detection", i)
		}
	}
	if off != res.DetectFails {
		t.Fatalf("%d DetOK=false samples vs Result.DetectFails=%d", off, res.DetectFails)
	}
}
