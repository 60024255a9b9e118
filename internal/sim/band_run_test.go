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

// passThrough hides the sensor it wraps from the loop's oracle check,
// so the loop captures first and computes whole frames.
type passThrough struct{ s sim.Sensor }

func (p passThrough) Classify(img *raster.RGB, truth world.Situation) int {
	return p.s.Classify(img, truth)
}

// TestBandRunMatchesFullFrameRun runs each run twice, once with plain
// Oracle sensors (the loop classifies before capture and computes only
// the selected ROI's spans) and once with the same oracles behind a
// pass-through wrapper (whole frames, classified after the ISP): the
// trace CSVs and Results must be byte-identical. The runs are a clean
// run and the noise, RGB-corruption, occlusion, drop, stuck-at, bit-flip
// and correlated fault schedules, on a right turn at dusk under case 4,
// where the ROI switches, and a case 3 slice of the nine-sector lap
// that switches between ROI 1 and the turn ROIs. Between them the span
// runs take every worker count from 1 to 8.
func TestBandRunMatchesFullFrameRun(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Dusk}
	turn := sim.Config{Track: world.SituationTrack(sit), Camera: camera.Scaled(96, 48), Case: knobs.Case4, Seed: 5, MaxTimeS: 12}
	lap := sim.Config{Track: world.NineSectorTrack(), Camera: camera.Scaled(96, 48), Case: knobs.Case3, Seed: 4, MaxTimeS: 24}
	runs := []struct {
		spec string
		cfg  sim.Config
	}{
		{"", turn}, {"noise:mag=0.15@10-40", turn}, {"isp:rows=0.3,p=0.3@10-40", turn},
		{"occlude:frac=0.3@10-40", turn}, {"drop:p=0.1", turn}, {"stuck:road=1@10-40", turn},
		{"flip:road,p=0.3@10-40", turn}, {"corr:road,mag=0.3,p=0.3@10-40", turn}, {"", lap},
	}
	oracles := sim.OracleSensors()
	for i, run := range runs {
		cfg := run.cfg
		if run.spec != "" {
			sched, err := fault.ParseSpec(run.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
		}
		cfg.Sens = sim.Sensors{Road: passThrough{oracles.Road}, Lane: passThrough{oracles.Lane}, Scene: passThrough{oracles.Scene}}
		cfg.KernelWorkers = 1
		wantCSV, want := tracedRun(t, cfg)
		rois := map[int]bool{}
		for _, k := range want.SettingsUsed {
			rois[k.ROI] = true
		}
		if len(rois) < 2 || (cfg.Case == knobs.Case3 && (!rois[1] || len(rois) < 3)) {
			t.Fatalf("run %d %q: the run used ROIs %v, want a switch", i, run.spec, rois)
		}
		cfg.Sens = oracles
		for _, workers := range []int{i%8 + 1, (i+5)%8 + 1} {
			cfg.KernelWorkers = workers
			gotCSV, got := tracedRun(t, cfg)
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Fatalf("run %d %q workers=%d: the span run traced other bytes than the whole-frame run", i, run.spec, workers)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d %q workers=%d: Result\n%+v\nwant\n%+v", i, run.spec, workers, *got, *want)
			}
		}
		if run.spec != "" && want.Faults.Total() == 0 {
			t.Fatalf("run %d %q injected nothing", i, run.spec)
		}
		t.Logf("run %d %q: %d frames, ROIs %v, settings %d, faults %s", i, run.spec, want.Frames, rois, len(want.SettingsUsed), want.Faults)
	}
}
