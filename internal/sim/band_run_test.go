package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/fault"
	"hsas/internal/knobs"
	"hsas/internal/raster"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// passThrough hides the sensor it wraps from the loop's band check, so
// the loop computes whole frames.
type passThrough struct{ s sim.Sensor }

func (p passThrough) Classify(img *raster.RGB, truth world.Situation) int {
	return p.s.Classify(img, truth)
}

// TestBandRunMatchesFullFrameRun runs each spec twice, once with plain
// Oracle sensors (the loop computes only the band) and once with the
// same oracles behind a pass-through wrapper (whole frames): the trace
// CSVs and Results must be byte-identical. The specs are a clean run and
// the noise, RGB-corruption, occlusion and drop fault schedules, on a
// right turn at dusk under case 4, where the ROI switches; between them
// the band runs take every worker count from 1 to 8.
func TestBandRunMatchesFullFrameRun(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Dusk}
	specs := []string{"", "noise:mag=0.15@10-40", "isp:rows=0.3,p=0.3@10-40", "occlude:frac=0.3@10-40", "drop:p=0.1"}
	oracles := sim.OracleSensors()
	for i, spec := range specs {
		var sched *fault.Schedule
		if spec != "" {
			var err error
			if sched, err = fault.ParseSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
		cfg := sim.Config{Track: world.SituationTrack(sit), Camera: camera.Scaled(96, 48), Case: knobs.Case4, Seed: 5, Faults: sched, MaxTimeS: 12}
		cfg.Sens = sim.Sensors{Road: passThrough{oracles.Road}, Lane: passThrough{oracles.Lane}, Scene: passThrough{oracles.Scene}}
		cfg.KernelWorkers = 1
		wantCSV, want := tracedRun(t, cfg)
		rois := map[int]bool{}
		for _, k := range want.SettingsUsed {
			rois[k.ROI] = true
		}
		if len(rois) < 2 {
			t.Fatalf("spec %q: the run used ROIs %v, want a switch", spec, rois)
		}
		cfg.Sens = oracles
		for _, workers := range []int{i%8 + 1, (i+5)%8 + 1} {
			cfg.KernelWorkers = workers
			gotCSV, got := tracedRun(t, cfg)
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Fatalf("spec %q workers=%d: the band run traced other bytes than the whole-frame run", spec, workers)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %q workers=%d: Result\n%+v\nwant\n%+v", spec, workers, *got, *want)
			}
		}
		if spec != "" && want.Faults.Total() == 0 {
			t.Fatalf("spec %q injected nothing", spec)
		}
	}
}
