package sim_test

import (
	"bytes"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/fault"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/sim"
	"hsas/internal/trace"
	"hsas/internal/world"
)

// faultedConfig builds the reference config for the determinism checks:
// case 4 on the right-turn track with a schedule exercising every fault
// kind, including probabilistic ones.
func faultedConfig(t *testing.T, workers int) sim.Config {
	t.Helper()
	sched, err := fault.ParseSpec(
		"drop:p=0.05;noise:mag=0.2@30-60;isp:rows=0.5,p=0.5@60-90;stuck:road=0@90-120;flip:lane,p=0.3;overrun:ms=40,p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	return sim.Config{
		Track:         world.SituationTrack(sit),
		Camera:        camera.Scaled(192, 96),
		Case:          knobs.Case4,
		Seed:          7,
		Faults:        sched,
		KernelWorkers: workers,
	}
}

// tracedRun executes the config and returns the full trace CSV bytes
// plus the run result.
func tracedRun(t *testing.T, cfg sim.Config) ([]byte, *sim.Result) {
	t.Helper()
	var rec trace.Recorder
	cfg.Trace = rec.Add
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestFaultTraceDeterministic: same Config + same seed + same schedule
// must produce a byte-identical trace CSV, fault for fault.
func TestFaultTraceDeterministic(t *testing.T) {
	csv1, res1 := tracedRun(t, faultedConfig(t, 0))
	csv2, res2 := tracedRun(t, faultedConfig(t, 0))
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("identical configs produced different trace CSVs")
	}
	if res1.Faults != res2.Faults {
		t.Fatalf("fault counts diverged: %s vs %s", res1.Faults, res2.Faults)
	}
	if res1.Degraded != res2.Degraded {
		t.Fatalf("degradation stats diverged: %+v vs %+v", res1.Degraded, res2.Degraded)
	}
	if res1.Faults.Total() == 0 {
		t.Fatal("schedule injected nothing; the determinism check is vacuous")
	}

	// A different seed must actually change the probabilistic faults —
	// otherwise the equality above proves nothing.
	cfg := faultedConfig(t, 0)
	cfg.Seed = 8
	csv3, _ := tracedRun(t, cfg)
	if bytes.Equal(csv1, csv3) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestFaultTraceWorkerIndependent: fault decisions are counter-based
// hashes of (seed, frame, event), so the kernel worker count must not
// change a single trace byte.
func TestFaultTraceWorkerIndependent(t *testing.T) {
	serial, resSerial := tracedRun(t, faultedConfig(t, -1))
	par, resPar := tracedRun(t, faultedConfig(t, 4))
	if !bytes.Equal(serial, par) {
		t.Fatal("worker count changed the fault trace")
	}
	if resSerial.Faults != resPar.Faults {
		t.Fatalf("worker count changed fault counts: %s vs %s", resSerial.Faults, resPar.Faults)
	}
}

// TestObservedRunMatchesBaseline checks instrumentation does not perturb
// the simulation: under a schedule firing every fault kind but
// occlusion, an observed run and a bare run produce the same result and
// a byte-identical trace CSV.
func TestObservedRunMatchesBaseline(t *testing.T) {
	sched, err := fault.ParseSpec(
		"drop:p=0.05;noise:mag=0.2@10-30;isp:rows=0.5,p=0.5@30-50;stuck:road=0@50-70;flip:lane,p=0.3;overrun:ms=40,p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Track:  world.SituationTrack(world.PaperSituations[0]),
		Camera: camera.Scaled(64, 32),
		Case:   knobs.Case4,
		Seed:   7,
		Faults: sched,
	}
	bareCSV, bare := tracedRun(t, cfg)
	cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
	observedCSV, observed := tracedRun(t, cfg)
	if bare.MAE != observed.MAE || bare.Frames != observed.Frames || bare.Crashed != observed.Crashed ||
		bare.DetectFails != observed.DetectFails || bare.Faults != observed.Faults || bare.Degraded != observed.Degraded {
		t.Fatalf("observed run diverged: %+v vs %+v", observed, bare)
	}
	if !bytes.Equal(bareCSV, observedCSV) {
		t.Fatal("observed run traced different bytes than the bare run")
	}
	for _, k := range fault.Kinds() {
		if k != fault.LaneOcclude && k != fault.Correlated && bare.Faults[k] == 0 {
			t.Fatalf("schedule fired no %s fault: %s", k, bare.Faults)
		}
	}
}
