package core

import (
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/knobs"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

func TestCandidateSettingsPruned(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Day}
	cfg := CharacterizeConfig{ISPCandidates: []string{"S0", "S3"}}
	cands := candidateSettings(sit, cfg)
	if len(cands) != 2 {
		t.Fatalf("pruned sweep size = %d, want 2", len(cands))
	}
	for _, c := range cands {
		if c.ROI != 3 || c.SpeedKmph != 30 {
			t.Fatalf("pruned candidate %v should use ROI 3 at 30 km/h", c)
		}
	}
	cfg.FullROISweep = true
	cfg.ISPCandidates = []string{"S0"}
	full := candidateSettings(sit, cfg)
	if len(full) != 5*2 {
		t.Fatalf("full sweep size = %d, want 10", len(full))
	}
}

// TestCharacterizeSmall runs the design-time flow on two situations with
// a reduced ISP candidate list and verifies it picks a setting that
// completes the track.
func TestCharacterizeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep skipped in -short")
	}
	var done int
	res, err := Characterize(CharacterizeConfig{
		Situations: []world.Situation{
			{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day},
			{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Dark},
		},
		ISPCandidates: []string{"S0", "S5", "S8"},
		Camera:        camera.Scaled(160, 80),
		Seed:          1,
		Runner:        &campaign.Engine{Hooks: campaign.Hooks{JobDone: func(campaign.JobEvent) { done++ }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if done != 6 {
		t.Fatalf("completed jobs = %d, want 6", done)
	}
	for _, e := range res.Entries {
		if e.Best.Crashed {
			t.Fatalf("best candidate for %v crashed", e.Situation)
		}
		if len(e.Candidates) != 3 {
			t.Fatalf("candidate count = %d", len(e.Candidates))
		}
		// Candidates are sorted by MAE.
		for i := 1; i < len(e.Candidates); i++ {
			if e.Candidates[i].MAE < e.Candidates[i-1].MAE {
				t.Fatal("candidates not sorted")
			}
		}
	}
	table := res.Table()
	if len(table) != 2 {
		t.Fatalf("table size = %d", len(table))
	}
	out := res.FormatTable()
	if !strings.Contains(out, "straight, white continuous, dark") {
		t.Fatalf("FormatTable missing situation:\n%s", out)
	}
}

func TestReconfiguratorFlow(t *testing.T) {
	table := knobs.PaperTable()
	initial := world.PaperSituations[0] // straight, white continuous, day
	r := NewReconfigurator(knobs.Case4, table, initial)

	// Initial setting matches Table III row 1.
	setting, activeISP := r.Step()
	if setting.ISP != "S3" || setting.ROI != 1 || setting.SpeedKmph != 50 {
		t.Fatalf("initial setting = %v", setting)
	}
	if activeISP != "S3" {
		t.Fatalf("initial active ISP = %s", activeISP)
	}

	// Road classifier reports a right turn: PR/control switch this cycle,
	// the ISP knob one cycle later (Sec. III-D).
	r.Observe(int(world.RightTurn), -1, -1)
	if r.Believed().Layout != world.RightTurn {
		t.Fatal("belief not updated")
	}
	setting, activeISP = r.Step()
	want := table.Lookup(r.Believed())
	if setting != want {
		t.Fatalf("setting = %v, want %v", setting, want)
	}
	if activeISP != "S3" {
		t.Fatalf("ISP switched in the same cycle: %s", activeISP)
	}
	_, activeISP = r.Step()
	if activeISP != want.ISP {
		t.Fatalf("ISP not applied on the next cycle: %s, want %s", activeISP, want.ISP)
	}
}

func TestReconfiguratorIgnoresInvalidObservations(t *testing.T) {
	r := NewReconfigurator(knobs.Case3, knobs.PaperTable(), world.PaperSituations[0])
	before := r.Believed()
	r.Observe(-1, 99, 1000)
	if r.Believed().Layout != before.Layout || r.Believed().Lane != before.Lane {
		t.Fatal("invalid observations mutated belief")
	}
}

// TestVerifySwitchingStability certifies the paper's CQLF argument over
// the complete Table III controller bank (both 3-classifier and variable
// 1-classifier pipelines).
func TestVerifySwitchingStability(t *testing.T) {
	if err := VerifySwitchingStability(knobs.PaperTable(), vehicle.BMWX5()); err != nil {
		t.Fatalf("switching stability not certified: %v", err)
	}
}

// TestSensitivityScreening runs the Monte-Carlo knob screening of
// Sec. III-B at a tiny scale: on a turn situation the ROI and speed knobs
// must register as sensitive (the paper's finding).
func TestSensitivityScreening(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo screening skipped in -short")
	}
	res, err := AnalyzeSensitivity(SensitivityConfig{
		Situation: world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day},
		Samples:   10,
		Camera:    camera.Scaled(160, 80),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Knobs) != 3 {
		t.Fatalf("knob dimensions = %d", len(res.Knobs))
	}
	// Sorted by spread, and every dimension registered some samples.
	for i := 1; i < len(res.Knobs); i++ {
		if res.Knobs[i].Spread > res.Knobs[i-1].Spread {
			t.Fatal("sensitivities not sorted")
		}
	}
	for _, k := range res.Knobs {
		if len(k.MeanByValue) == 0 {
			t.Fatalf("knob %s has no values", k.Knob)
		}
	}
	if res.Format() == "" {
		t.Fatal("empty format")
	}
}

// TestCandidateSettingsPrecisionAxis: adding the precision knob to the
// sweep multiplies the candidate space, every added candidate carries the
// canonical precision string, and the default (no Precisions) stays the
// float32-only sweep so pre-knob cache keys remain byte-identical.
func TestCandidateSettingsPrecisionAxis(t *testing.T) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Day}
	cfg := CharacterizeConfig{ISPCandidates: []string{"S0", "S3"}}
	base := candidateSettings(sit, cfg)

	cfg.Precisions = []string{knobs.PrecisionFP32, knobs.PrecisionInt8}
	both := candidateSettings(sit, cfg)
	if len(both) != 2*len(base) {
		t.Fatalf("precision axis gave %d candidates, want %d", len(both), 2*len(base))
	}
	nInt8 := 0
	for _, c := range both {
		switch c.Precision {
		case knobs.PrecisionFP32:
		case knobs.PrecisionInt8:
			nInt8++
		default:
			t.Fatalf("candidate carries non-canonical precision %q", c.Precision)
		}
	}
	if nInt8 != len(base) {
		t.Fatalf("%d int8 candidates, want %d", nInt8, len(base))
	}

	cfg.FullROISweep = true
	cfg.ISPCandidates = []string{"S0"}
	full := candidateSettings(sit, cfg)
	if len(full) != 5*2*2 {
		t.Fatalf("full sweep with precision axis = %d, want 20", len(full))
	}
}

// TestCharacterizeRejectsBadPrecision: an unknown precision fails before
// any simulation runs.
func TestCharacterizeRejectsBadPrecision(t *testing.T) {
	_, err := Characterize(CharacterizeConfig{
		Situations:    []world.Situation{world.PaperSituations[0]},
		ISPCandidates: []string{"S0"},
		Precisions:    []string{"int4"},
		Camera:        camera.Scaled(160, 80),
	})
	if err == nil || !strings.Contains(err.Error(), "precision") {
		t.Fatalf("bad precision not rejected: %v", err)
	}
}

// TestFormatTablePrecisionMarker: rows won by a non-default precision
// carry the "/int8" marker in the ISP column; float32 rows do not.
func TestFormatTablePrecisionMarker(t *testing.T) {
	res := &Result{Entries: []Entry{
		{
			Situation: world.PaperSituations[0],
			Best:      Candidate{Setting: knobs.Setting{ISP: "S3", ROI: 1, SpeedKmph: 50}},
		},
		{
			Situation: world.PaperSituations[1],
			Best:      Candidate{Setting: knobs.Setting{ISP: "S0", ROI: 3, SpeedKmph: 30, Precision: knobs.PrecisionInt8}},
		},
	}}
	out := res.FormatTable()
	if !strings.Contains(out, "S0/int8") {
		t.Fatalf("int8 row missing marker:\n%s", out)
	}
	if strings.Contains(out, "S3/") {
		t.Fatalf("fp32 row grew a precision marker:\n%s", out)
	}
}
