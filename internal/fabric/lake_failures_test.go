package fabric

import (
	"context"
	"testing"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// TestRunnersCountLakeFailuresAlike injects the same lake writer
// failures into campaign.Engine and the fabric coordinator and requires
// equal deltas of the shared hsas_lake_{append,flush}_failures_total
// counters: both runners project the same jobs onto the lake, so a lake
// that loses rows must show the same loss whichever runner wrote it.
func TestRunnersCountLakeFailuresAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	_, srv := newTestWorker(t)
	traced := tinyJobs(2)
	traced[1].RecordTrace = true
	warm := campaign.NewMemCache()
	if _, _, err := (&campaign.Engine{Workers: 1, Cache: warm}).Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		broken     bool // a closed writer rejects every append and flush
		jobs       []campaign.JobSpec
		cache      func() campaign.Cache
		wantAppend int64
		wantFlush  int64
	}{
		{"healthy lake", false, traced, func() campaign.Cache { return campaign.NewMemCache() }, 0, 0},
		{"closed lake, simulated", true, tinyJobs(2), func() campaign.Cache { return campaign.NewMemCache() }, 2, 1},
		{"closed lake, simulated with trace", true, traced, func() campaign.Cache { return campaign.NewMemCache() }, 3, 1},
		{"closed lake, cache hits", true, traced, func() campaign.Cache { return warm }, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openLake := func() *lake.Writer {
				lw, err := lake.OpenWriter(t.TempDir(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if tc.broken {
					if err := lw.Close(); err != nil {
						t.Fatal(err)
					}
				}
				return lw
			}
			type runner func(lw *lake.Writer, o *obs.Observer) error
			runners := map[string]runner{
				"engine": func(lw *lake.Writer, o *obs.Observer) error {
					_, _, err := (&campaign.Engine{Workers: 1, Cache: tc.cache(), Lake: lw, Obs: o}).Run(context.Background(), tc.jobs)
					return err
				},
				"coordinator": func(lw *lake.Writer, o *obs.Observer) error {
					co, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, Cache: tc.cache(), Lake: lw, Obs: o})
					if err != nil {
						return err
					}
					_, _, err = co.Run(context.Background(), tc.jobs)
					return err
				},
			}
			for name, run := range runners {
				reg := obs.NewRegistry()
				if err := run(openLake(), &obs.Observer{Metrics: reg}); err != nil {
					t.Fatalf("%s: lake failures must not fail the run: %v", name, err)
				}
				appendF, flushF := campaign.LakeFailureCounters(reg)
				if appendF.Value() != tc.wantAppend || flushF.Value() != tc.wantFlush {
					t.Errorf("%s: append/flush failures = %d/%d, want %d/%d",
						name, appendF.Value(), flushF.Value(), tc.wantAppend, tc.wantFlush)
				}
			}
		})
	}
}
