package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"hsas/internal/campaign"
	"hsas/internal/world"
)

// TestPenalizedMAERanking pins the crash-penalty fix: crashed candidates
// are penalized on the same eval-sector basis as survivors, so (a) every
// survivor outranks every crasher, and (b) two crashers still rank by
// how well they tracked the eval sector before failing. The seed version
// substituted the whole-track MAE for crashers, which could invert (b)
// and, for a crasher with a tiny whole-track MAE, threaten (a).
func TestPenalizedMAERanking(t *testing.T) {
	type cand struct {
		name      string
		sectorMAE float64
		crashed   bool
	}
	cands := []cand{
		{"survivor-good", 0.08, false},
		{"survivor-bad", 1.9, false},
		{"crasher-close", 0.2, true}, // tracked well, then crashed
		{"crasher-wild", 2.0, true},  // was already far off
	}
	type scored struct {
		name string
		mae  float64
	}
	var ranked []scored
	for _, c := range cands {
		mae, crashed := penalizedMAE(c.sectorMAE, c.crashed)
		if c.crashed && !crashed {
			t.Fatalf("%s: crash flag lost", c.name)
		}
		if !c.crashed && crashed {
			t.Fatalf("%s: survivor marked crashed", c.name)
		}
		ranked = append(ranked, scored{c.name, mae})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].mae < ranked[j].mae })
	want := []string{"survivor-good", "survivor-bad", "crasher-close", "crasher-wild"}
	for i, w := range want {
		if ranked[i].name != w {
			t.Fatalf("rank %d: got %s, want %s (full order %v)", i, ranked[i].name, w, ranked)
		}
	}
}

// TestPenalizedMAEUnsampledSector: a run that never sampled the eval
// sector (sector MAE 0) is indistinguishable from a crash there and must
// not win the sweep with a spurious perfect score.
func TestPenalizedMAEUnsampledSector(t *testing.T) {
	mae, crashed := penalizedMAE(0, false)
	if !crashed || mae < crashPenalty {
		t.Fatalf("unsampled sector scored %v crashed=%v", mae, crashed)
	}
	mae, crashed = penalizedMAE(0.5, false)
	if crashed || mae != 0.5 {
		t.Fatalf("clean survivor rescored to %v crashed=%v", mae, crashed)
	}
}

// stubRunner answers every job with a copy of one canned result.
type stubRunner struct{ result campaign.JobResult }

func (s stubRunner) Run(_ context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, campaign.RunStats, error) {
	out := make([]*campaign.JobResult, len(jobs))
	for i := range out {
		r := s.result
		out[i] = &r
	}
	return out, campaign.RunStats{Jobs: len(jobs), Unique: len(jobs), Simulated: len(jobs)}, nil
}

// TestSensitivityPenalizesCrashOnSectorBasis: the screening scores a
// crashed sample as the sweep scores a crashed candidate, eval-sector
// MAE + crashPenalty, not whole-track MAE + crashPenalty. Every sample
// here crashed with a sector MAE (0.3) that differs from its
// whole-track MAE (2.0), so every per-value mean must be 10.3.
func TestSensitivityPenalizesCrashOnSectorBasis(t *testing.T) {
	sit := world.PaperSituations[0]
	sector := world.SituationEvalSector(sit)
	r := campaign.JobResult{MAE: 2.0, Crashed: true, SectorMAE: make([]float64, sector), SectorN: make([]int, sector)}
	r.SectorMAE[sector-1], r.SectorN[sector-1] = 0.3, 10
	res, err := AnalyzeSensitivity(SensitivityConfig{Situation: sit, Samples: 4, Seed: 1, Runner: stubRunner{r}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 + crashPenalty
	for _, k := range res.Knobs {
		for v, got := range k.MeanByValue {
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s=%s scored %v, want sector MAE + penalty = %v", k.Knob, v, got, want)
			}
		}
	}
}
