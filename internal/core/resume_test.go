package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/obs"
	"hsas/internal/world"
)

// fastSweep is a three-candidate characterization small enough for unit
// tests (~1 s of simulation total).
func fastSweep() CharacterizeConfig {
	return CharacterizeConfig{
		Situations:    []world.Situation{world.PaperSituations[0]},
		ISPCandidates: []string{"S0", "S3", "S5"},
		Camera:        camera.Scaled(64, 32),
		Seed:          1,
	}
}

// TestCharacterizeResumeByteIdentical pins the tentpole guarantee: kill
// a sweep mid-run, re-run it against the same cache directory, and the
// final Table III output is byte-identical to a sweep that was never
// interrupted.
func TestCharacterizeResumeByteIdentical(t *testing.T) {
	truth, err := Characterize(fastSweep())
	if err != nil {
		t.Fatal(err)
	}

	// cachedEngine runs one job at a time on the shared cache directory,
	// reporting to reg.
	dir := t.TempDir()
	cachedEngine := func(reg *obs.Registry) *campaign.Engine {
		cache, err := campaign.NewDirCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &campaign.Engine{Workers: 1, Cache: cache, Obs: &obs.Observer{Metrics: reg}}
	}

	// Interrupt after the first candidate checkpoints: JobDone fires
	// once per completed job, after the cache write.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastSweep()
	cfg.Context = ctx
	eng := cachedEngine(obs.NewRegistry())
	eng.Hooks.JobDone = func(campaign.JobEvent) { cancel() }
	cfg.Runner = eng
	if _, err := Characterize(cfg); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted sweep returned %v", err)
	}

	// Resume with the same cache: the checkpointed candidate is a hit,
	// the rest simulate, and the table matches the uninterrupted sweep.
	reg := obs.NewRegistry()
	cfg2 := fastSweep()
	cfg2.Runner = cachedEngine(reg)
	resumed, err := Characterize(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.FormatTable(), truth.FormatTable(); got != want {
		t.Fatalf("resumed table differs from uninterrupted sweep:\n--- resumed\n%s--- truth\n%s", got, want)
	}
	if runs := counter(t, reg, "hsas_campaign_cache_misses_total"); runs != 2 {
		t.Fatalf("resume simulated %v candidates, want 2 (one was checkpointed)", runs)
	}

	// Re-running against the now-full cache costs zero simulations.
	reg2 := obs.NewRegistry()
	cfg3 := fastSweep()
	cfg3.Runner = cachedEngine(reg2)
	again, err := Characterize(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.FormatTable(); got != truth.FormatTable() {
		t.Fatal("fully cached sweep produced a different table")
	}
	if runs := counter(t, reg2, "hsas_campaign_cache_misses_total"); runs != 0 {
		t.Fatalf("fully cached sweep still simulated %v candidates", runs)
	}
	if hits := counter(t, reg2, "hsas_campaign_cache_hits_total"); hits != 3 {
		t.Fatalf("cache hit counter = %v, want 3 (every candidate)", hits)
	}
}

// counter reads one counter value from the registry's exposition.
func counter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %f", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// TestSensitivityHonorsCandidatesAndWorkers is the regression test for
// the dead -workers/-isps flags in sensitivity mode: a restricted ISP
// candidate list must actually restrict the sampling, and the engine's
// worker count must not change the outcome.
func TestSensitivityHonorsCandidatesAndWorkers(t *testing.T) {
	base := SensitivityConfig{
		Situation:     world.PaperSituations[0],
		Samples:       3,
		Camera:        camera.Scaled(64, 32),
		Seed:          7,
		ISPCandidates: []string{"S0"},
	}

	done := 0
	reg := obs.NewRegistry()
	cfg := base
	cfg.Runner = &campaign.Engine{
		Workers: 2,
		Obs:     &obs.Observer{Metrics: reg},
		Hooks:   campaign.Hooks{JobDone: func(campaign.JobEvent) { done++ }},
	}
	res, err := AnalyzeSensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Knobs {
		if k.Knob != "ISP" {
			continue
		}
		if len(k.MeanByValue) != 1 {
			t.Fatalf("restricted candidate list sampled %d ISPs: %v", len(k.MeanByValue), k.MeanByValue)
		}
		if _, ok := k.MeanByValue["S0"]; !ok {
			t.Fatalf("expected only S0 samples, got %v", k.MeanByValue)
		}
	}
	if done != 3 {
		t.Fatalf("JobDone fired %d times, want one per sample", done)
	}
	// The screening's simulations land in the engine's registry — the
	// -metrics-out path has something to dump.
	if jobs := counter(t, reg, "hsas_campaign_jobs_total"); jobs != 3 {
		t.Fatalf("campaign jobs counter = %v, want 3", jobs)
	}

	// Same screening on one worker: identical outcome.
	serial := base
	serial.Runner = &campaign.Engine{Workers: 1}
	res2, err := AnalyzeSensitivity(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Knobs, res2.Knobs) {
		t.Fatalf("worker count changed the screening:\n%v\nvs\n%v", res.Knobs, res2.Knobs)
	}
}
