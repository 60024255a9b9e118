package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/knobs"
	"hsas/internal/sim"
	"hsas/internal/world"
)

func syntheticPoints() []sim.TracePoint {
	var pts []sim.TracePoint
	for i := 0; i < 100; i++ {
		t := float64(i) * 0.025
		// Decaying oscillation: settles below 0.2 m and stays there.
		yl := 0.8 * math.Exp(-t) * math.Cos(4*t)
		pts = append(pts, sim.TracePoint{
			TimeS:  t,
			S:      t * 8.3,
			Sector: 1,
			Lat:    0.1 * yl,
			YLTrue: yl,
			YLMeas: yl + 0.01,
			DetOK:  i%10 != 0,
			// Every 20th gated-out cycle had a raw detection the
			// innovation gate rejected.
			RawDetOK: i%10 != 0 || i%20 == 0,
			Steer:    -0.3 * yl,
			Setting:  knobs.Setting{ISP: "S3", ROI: 1, SpeedKmph: 30},
			HMs:      25, TauMs: 25,
		})
	}
	pts[50].Setting = knobs.Setting{ISP: "S8", ROI: 2, SpeedKmph: 30}
	return pts
}

func TestCSVRoundTrip(t *testing.T) {
	rec := &Recorder{Points: syntheticPoints()}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rec.Points) {
		t.Fatalf("round trip size %d vs %d", len(back), len(rec.Points))
	}
	for i := range back {
		a, b := back[i], rec.Points[i]
		// time_s is written with 4 decimals, yl_true and steer with 5.
		if math.Abs(a.TimeS-b.TimeS) > 1e-4 || math.Abs(a.YLTrue-b.YLTrue) > 1e-4 ||
			math.Abs(a.Steer-b.Steer) > 1e-4 || a.Sector != b.Sector ||
			a.DetOK != b.DetOK || a.RawDetOK != b.RawDetOK || a.Setting != b.Setting {
			t.Fatalf("point %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Fatal("wrong header accepted")
	}
	header := strings.Join(csvHeader, ",") + "\n"
	if _, err := ReadCSV(bytes.NewBufferString(header + "0,0,1,0,0,true,true,0,S0,1,50,25,25,,false\n")); err != nil {
		t.Fatalf("well-formed row rejected: %v", err)
	}
	bad := header + "x,0,1,0,0,true,true,0,S0,1,50,25,25,,false\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("malformed float accepted")
	}
	// det_ok must be a parseable bool, not silently coerced to false.
	badBool := header + "0,0,1,0,0,yes,true,0,S0,1,50,25,25,,false\n"
	if _, err := ReadCSV(bytes.NewBufferString(badBool)); err == nil {
		t.Fatal("malformed det_ok accepted")
	}
	// WriteCSV never quotes a field or writes a CR.
	for _, odd := range []string{strings.Replace(header, "isp", `"isp"`, 1), strings.ReplaceAll(header, "\n", "\r\n")} {
		if _, err := ReadCSV(bytes.NewBufferString(odd)); err == nil {
			t.Fatalf("%q accepted", odd)
		}
	}
	// The pre-PR-2 11-column schema (no raw_det_ok) must be rejected, not
	// misparsed with shifted columns.
	old := "time_s,s_m,sector,yl_true,yl_meas,det_ok,steer,isp,roi,speed_kmph,h_ms,tau_ms\n0,0,1,0,0,true,0,S0,1,50,25,25\n"
	if _, err := ReadCSV(bytes.NewBufferString(old)); err == nil {
		t.Fatal("legacy 12-column schema accepted")
	}
}

// TestRecorderWithSim wires the recorder into a real closed-loop run.
func TestRecorderWithSim(t *testing.T) {
	sit := world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	rec := &Recorder{}
	res, err := sim.Run(sim.Config{
		Track:  world.SituationTrack(sit),
		Camera: camera.Scaled(160, 80),
		Case:   knobs.Case4,
		Seed:   1,
		Trace:  rec.Add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Points) != res.Frames {
		t.Fatalf("recorded %d points for %d frames", len(rec.Points), res.Frames)
	}
	// det_ok consistency: the trace's gated outcome must reconcile
	// exactly with Result.DetectFails, and the gate can only ever turn a
	// raw detection OFF.
	gatedOff := 0
	for i, p := range rec.Points {
		if !p.DetOK {
			gatedOff++
		}
		if p.DetOK && !p.RawDetOK {
			t.Fatalf("point %d: DetOK set without a raw detection", i)
		}
	}
	if gatedOff != res.DetectFails {
		t.Fatalf("trace has %d det_ok=false points, Result.DetectFails = %d", gatedOff, res.DetectFails)
	}
	if avail := 1 - float64(gatedOff)/float64(len(rec.Points)); avail < 0.9 {
		t.Fatalf("availability = %v", avail)
	}
	// The run settles: from some sample on, |yL| stays inside 0.2 m.
	settled := -1
	for i, p := range rec.Points {
		if math.Abs(p.YLTrue) > 0.2 {
			settled = -1
		} else if settled < 0 {
			settled = i
		}
	}
	if settled < 0 {
		t.Fatal("straight-day run never settled")
	}
}
