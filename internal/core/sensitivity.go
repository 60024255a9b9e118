package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/knobs"
	"hsas/internal/world"
)

// This file implements the screening step of Sec. III-B: "we determine
// the system parameters that are sensitive to the operating situation
// using Monte-Carlo simulations of the entire system". Random knob
// assignments are evaluated in closed loop; the per-knob spread of mean
// QoC identifies the knobs worth characterizing (the paper found the ISP
// approximation, the PR ROI and the vehicle speed).

// SensitivityConfig parameterizes the Monte-Carlo screening.
type SensitivityConfig struct {
	Situation world.Situation
	Samples   int // random knob assignments (default 24)
	Camera    camera.Camera
	Seed      int64
	// ISPCandidates restricts the ISP configurations sampled (default
	// S0..S8). The sampling sequence with the default list is identical
	// to earlier releases for a given Seed.
	ISPCandidates []string
	// Runner executes the samples' closed-loop jobs (see
	// CharacterizeConfig.Runner); nil means &campaign.Engine{}. The
	// screening outcome is identical for any runner.
	Runner campaign.Runner
}

// KnobSensitivity is the screening outcome for one knob dimension: the
// spread between the best and worst mean QoC across the knob's values
// (including crash penalties). Large spread = sensitive knob.
type KnobSensitivity struct {
	Knob   string
	Spread float64
	// MeanByValue maps each knob value to its mean penalized MAE.
	MeanByValue map[string]float64
}

// SensitivityResult orders the knob dimensions by their QoC impact.
type SensitivityResult struct {
	Situation world.Situation
	Knobs     []KnobSensitivity // sorted, most sensitive first
	Samples   int
}

// Format renders the screening outcome.
func (r *SensitivityResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Monte-Carlo knob screening for %v (%d samples)\n", r.Situation, r.Samples)
	for _, k := range r.Knobs {
		fmt.Fprintf(&sb, "  %-8s spread %.4f |", k.Knob, k.Spread)
		keys := make([]string, 0, len(k.MeanByValue))
		for v := range k.MeanByValue {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		for _, v := range keys {
			fmt.Fprintf(&sb, " %s:%.3f", v, k.MeanByValue[v])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// AnalyzeSensitivity runs the Monte-Carlo screening for one situation.
// Every sample is a job for cfg.Runner, scored as the sweep scores a
// candidate (penalizedMAE); the outcome is identical for any runner,
// worker count or cache state because the random knob assignments and
// per-sample seeds are drawn up front.
func AnalyzeSensitivity(cfg SensitivityConfig) (*SensitivityResult, error) {
	if cfg.Samples == 0 {
		cfg.Samples = 24
	}
	if cfg.Camera.Width == 0 {
		cfg.Camera = camera.Scaled(192, 96)
	}
	runner := cfg.Runner
	if runner == nil {
		runner = &campaign.Engine{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ispIDs := cfg.ISPCandidates
	if ispIDs == nil {
		ispIDs = tableIIISPs()
	}

	// Draw every random knob assignment before anything simulates, so
	// the sampling sequence never depends on worker scheduling.
	settings := make([]knobs.Setting, cfg.Samples)
	jobs := make([]campaign.JobSpec, cfg.Samples)
	for i := range settings {
		settings[i] = knobs.Setting{
			ISP:       ispIDs[rng.Intn(len(ispIDs))],
			ROI:       1 + rng.Intn(5),
			SpeedKmph: knobs.Speeds[rng.Intn(len(knobs.Speeds))],
		}
		jobs[i] = sweepJob(cfg.Situation, cfg.Camera, settings[i], cfg.Seed+int64(i))
	}
	results, _, err := runner.Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("core: sensitivity: %w", err)
	}

	evalSector := world.SituationEvalSector(cfg.Situation)
	maes := make([]float64, cfg.Samples)
	for i, r := range results {
		maes[i], _ = penalizedMAE(r.Sector(evalSector), r.Crashed)
	}

	group := func(key func(knobs.Setting) string) KnobSensitivity {
		sums := map[string]float64{}
		counts := map[string]int{}
		for i, s := range settings {
			k := key(s)
			sums[k] += maes[i]
			counts[k]++
		}
		out := KnobSensitivity{MeanByValue: map[string]float64{}}
		lo, hi := 0.0, 0.0
		first := true
		for k, sum := range sums {
			m := sum / float64(counts[k])
			out.MeanByValue[k] = m
			if first {
				lo, hi = m, m
				first = false
			} else {
				if m < lo {
					lo = m
				}
				if m > hi {
					hi = m
				}
			}
		}
		out.Spread = hi - lo
		return out
	}

	isp := group(func(s knobs.Setting) string { return s.ISP })
	isp.Knob = "ISP"
	roi := group(func(s knobs.Setting) string { return fmt.Sprintf("ROI%d", s.ROI) })
	roi.Knob = "ROI"
	speed := group(func(s knobs.Setting) string { return fmt.Sprintf("v%g", s.SpeedKmph) })
	speed.Knob = "speed"

	res := &SensitivityResult{Situation: cfg.Situation, Samples: cfg.Samples,
		Knobs: []KnobSensitivity{isp, roi, speed}}
	sort.SliceStable(res.Knobs, func(i, j int) bool { return res.Knobs[i].Spread > res.Knobs[j].Spread })
	return res, nil
}
