package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/obs"
	"hsas/internal/world"
)

// TestCharacterizeWorkersDeterministic runs the same sweep serially and
// on a worker pool and requires identical results — the pool only
// changes wall-clock, never the regenerated table.
func TestCharacterizeWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep skipped in -short")
	}
	base := CharacterizeConfig{
		Situations: []world.Situation{
			{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day},
		},
		ISPCandidates: []string{"S0", "S5", "S8"},
		Camera:        camera.Scaled(128, 64),
		Seed:          1,
	}

	serial := base
	serial.Runner = &campaign.Engine{Workers: 1}
	want, err := Characterize(serial)
	if err != nil {
		t.Fatal(err)
	}

	pooled := base
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	pooled.Obs = &obs.Observer{
		Log:     obs.NewLogger(&logBuf, slog.LevelDebug),
		Metrics: reg,
		Trace:   obs.NewTracer(),
	}
	pooled.Runner = &campaign.Engine{Workers: 4, Obs: pooled.Obs}
	got, err := Characterize(pooled)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("entries = %d vs %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Best.Setting != w.Best.Setting || g.Best.MAE != w.Best.MAE {
			t.Fatalf("entry %d best diverged: %+v vs %+v", i, g.Best, w.Best)
		}
		for j := range g.Candidates {
			if g.Candidates[j] != w.Candidates[j] {
				t.Fatalf("entry %d candidate %d diverged: %+v vs %+v",
					i, j, g.Candidates[j], w.Candidates[j])
			}
		}
	}

	// Sweep instrumentation comes from the engine: one simulated job
	// and one job-latency sample per candidate, one job span per
	// candidate on its worker lane, the in-flight gauge back to zero,
	// and one situation span from the sweep itself.
	runs := int64(len(base.ISPCandidates))
	if got := reg.Counter("hsas_campaign_cache_misses_total", "").Value(); got != runs {
		t.Fatalf("simulated jobs = %d, want %d", got, runs)
	}
	if h := reg.Histogram("hsas_campaign_job_seconds", "", nil); h.Count() != runs {
		t.Fatalf("job histogram count = %d, want %d", h.Count(), runs)
	}
	if g := reg.Gauge("hsas_campaign_jobs_inflight", "").Value(); g != 0 {
		t.Fatalf("jobs in flight after sweep = %v", g)
	}
	spanCount := map[string]int{}
	for _, s := range pooled.Obs.Trace.Spans() {
		spanCount[s.Name]++
	}
	if int64(spanCount["job"]) != runs || spanCount["situation"] != 1 {
		t.Fatalf("spans = %v, want %d job and 1 situation", spanCount, runs)
	}
	// The shared registry also collects the inner sims' stage latencies.
	if h := reg.Histogram("hsas_sim_stage_seconds", "", nil, obs.L("stage", "isp")); h.Count() == 0 {
		t.Fatal("inner sim stage histograms not populated during sweep")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "campaign complete") || !strings.Contains(logs, "situation characterized") {
		t.Fatalf("sweep logs missing:\n%s", logs)
	}
}
