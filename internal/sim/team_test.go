package sim_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hsas/internal/fault"
	"hsas/internal/sim"
)

// TestTeamRunsMatchSerial runs the faulted reference config, whose drop
// faults leave the noise drawn ahead for a frame unused, on teams of
// two to four kernel workers: each run must trace the serial run's bytes
// and return its Result. CI runs it under -race -count=5.
func TestTeamRunsMatchSerial(t *testing.T) {
	cfg := faultedConfig(t, 1)
	cfg.MaxTimeS = 3
	wantCSV, want := tracedRun(t, cfg)
	if want.Faults[fault.FrameDrop] == 0 {
		t.Fatal("the reference run dropped no frame")
	}
	for workers := 2; workers <= 4; workers++ {
		cfg.KernelWorkers = workers
		gotCSV, got := tracedRun(t, cfg)
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("workers=%d: the trace differs from the serial run's", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Result\n%+v\nwant\n%+v", workers, *got, *want)
		}
	}
}

// TestRunStopsItsTeam: once Run returns, no goroutine of its team is
// left, whether the run ends at the track's end or by a crash, with a
// noise draw possibly still in flight.
func TestRunStopsItsTeam(t *testing.T) {
	before := runtime.NumGoroutine()
	for workers := 2; workers <= 4; workers++ {
		cfg := faultedConfig(t, workers)
		cfg.MaxTimeS = 1
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after Run returned, %d before it", workers, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSerialRunStartsNoGoroutine: a run at one kernel worker, as every
// campaign job runs, starts no goroutine at any point, faults and all.
func TestSerialRunStartsNoGoroutine(t *testing.T) {
	for _, workers := range []int{1, -1} {
		cfg := faultedConfig(t, workers)
		cfg.MaxTimeS = 1
		before, most := runtime.NumGoroutine(), 0
		cfg.Trace = func(sim.TracePoint) { most = max(most, runtime.NumGoroutine()) }
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames == 0 || most > before {
			t.Fatalf("KernelWorkers %d: %d frames, up to %d goroutines during the run, %d before it", workers, res.Frames, most, before)
		}
	}
}
