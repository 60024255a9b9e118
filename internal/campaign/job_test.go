package campaign

import (
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/knobs"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// testSetting is a cheap valid fixed setting for spec-level tests.
func testSetting() *knobs.Setting {
	return &knobs.Setting{ISP: "S0", ROI: 2, SpeedKmph: knobs.Speeds[0]}
}

func testSit() *world.Situation {
	s := world.PaperSituations[0]
	return &s
}

func TestKeyIsStableAcrossEquivalentSpellings(t *testing.T) {
	base := JobSpec{Situation: testSit(), Camera: camera.Scaled(192, 96), Case: 1, Seed: 1}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// The same run spelled differently must land on the same address:
	// implicit track name, geometry left for Normalize to fill, fault
	// spec in a non-canonical spelling.
	variants := []JobSpec{
		{Track: TrackSituation, Situation: testSit(), Camera: camera.Scaled(192, 96), Case: 1, Seed: 1},
		{Situation: testSit(), Camera: camera.Camera{Width: 192, Height: 96}, Case: 1, Seed: 1},
	}
	for i, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if k != k1 {
			t.Fatalf("variant %d hashed to %s, want %s", i, k, k1)
		}
	}

	// Fault specs are canonicalized through the parser before hashing.
	a := base
	a.Faults = "drop:p=0.02@100-200"
	b := base
	b.Faults = " drop:p=0.020@100-200 ; "
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equivalent fault specs hashed differently: %s vs %s", ka, kb)
	}
	if ka == k1 {
		t.Fatal("fault schedule did not feed the key")
	}
}

// TestValidKeyAcceptsOnlyContentAddresses: every key Key produces is
// valid, and nothing else that could name a path is.
func TestValidKeyAcceptsOnlyContentAddresses(t *testing.T) {
	k, err := JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1, Seed: 9}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if !ValidKey(k) {
		t.Fatalf("ValidKey(%q) = false for a key Key produced", k)
	}
	for _, bad := range []string{"", "nope", k[:63], k + "0", strings.ToUpper(k),
		"../../" + k[6:], k[:62] + "/x", k[:63] + "g", k[:63] + "\x00"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

func TestKeyDiscriminatesOutcomeAffectingFields(t *testing.T) {
	base := JobSpec{Situation: testSit(), Camera: camera.Scaled(192, 96), Case: 1, Seed: 1}
	mutate := map[string]func(*JobSpec){
		"seed":      func(j *JobSpec) { j.Seed = 2 },
		"case":      func(j *JobSpec) { j.Case = 2 },
		"camera":    func(j *JobSpec) { j.Camera = camera.Scaled(64, 32) },
		"situation": func(j *JobSpec) { s := world.PaperSituations[7]; j.Situation = &s },
		"faults":    func(j *JobSpec) { j.Faults = "drop:p=0.5" },
		"degrade":   func(j *JobSpec) { j.Degrade = &sim.Degradation{Enabled: true} },
		"ffwd":      func(j *JobSpec) { j.UseFeedforward = true },
		"trace":     func(j *JobSpec) { j.RecordTrace = true },
	}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range mutate {
		j := base
		f(&j)
		k, err := j.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k0 {
			t.Errorf("mutating %s did not change the content address", name)
		}
	}
}

func TestNormalizeRejectsInvalidSpecs(t *testing.T) {
	tests := []struct {
		name string
		job  JobSpec
		want string // substring of the error
	}{
		{"no situation", JobSpec{Camera: camera.Scaled(64, 32), Case: 1}, "needs a situation"},
		{"nine-sector with situation", JobSpec{Track: TrackNineSector, Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1}, "fixes its own situations"},
		{"unknown track", JobSpec{Track: "figure-eight", Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1}, `unknown track "figure-eight"`},
		{"zero camera", JobSpec{Situation: testSit(), Case: 1}, "width and height"},
		{"case and fixed", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1, Fixed: testSetting()}, "pick one"},
		{"case out of range", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 6}, "outside 1–5"},
		{"no case no fixed", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32)}, "outside 1–5"},
		{"unknown isp", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Fixed: &knobs.Setting{ISP: "S9", ROI: 1, SpeedKmph: 30}}, `unknown ISP config "S9"`},
		{"bad roi", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Fixed: &knobs.Setting{ISP: "S0", ROI: 6, SpeedKmph: 30}}, "ROI 6"},
		{"bad speed", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Fixed: &knobs.Setting{ISP: "S0", ROI: 1, SpeedKmph: -5}}, "speed -5"},
		{"bad classifiers", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Fixed: testSetting(), FixedClassifiers: 4}, "fixed_classifiers 4"},
		{"classifiers on case job", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1, FixedClassifiers: 2}, "only to fixed-setting jobs"},
		{"bad fault spec", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1, Faults: "meteor:p=1"}, "meteor"},
		{"negative recover", JobSpec{Situation: testSit(), Camera: camera.Scaled(64, 32), Case: 1, Degrade: &sim.Degradation{RecoverAfter: -1}}, "RecoverAfter"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.job.Normalize(); err == nil {
				t.Fatalf("Normalize accepted %+v", tc.job)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNormalizeDoesNotAliasCallerPointers(t *testing.T) {
	sit := world.PaperSituations[0]
	setting := *testSetting()
	j := JobSpec{Situation: &sit, Camera: camera.Scaled(64, 32), Fixed: &setting, FixedClassifiers: 3, Seed: 1}
	n, err := j.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sit.Layout = world.RightTurn
	setting.ISP = "S8"
	if n.Situation.Layout == world.RightTurn || n.Fixed.ISP == "S8" {
		t.Fatal("normalized spec aliases the caller's pointers")
	}
}

func TestJobResultSector(t *testing.T) {
	r := &JobResult{SectorMAE: []float64{0.1, 0.2}}
	if got := r.Sector(2); got != 0.2 {
		t.Fatalf("Sector(2) = %v, want 0.2", got)
	}
	for _, i := range []int{0, 3, -1} {
		if got := r.Sector(i); got != 0 {
			t.Fatalf("Sector(%d) = %v, want 0", i, got)
		}
	}
}

// TestKeyPrecisionCanonicalAndDiscriminating: the precision knob's fp32
// spellings all hash to the address of the pre-knob spec (so existing
// caches stay warm), while int8 gets its own address.
func TestKeyPrecisionCanonicalAndDiscriminating(t *testing.T) {
	mk := func(p string) JobSpec {
		s := testSetting()
		s.Precision = p
		return JobSpec{Situation: testSit(), Camera: camera.Scaled(192, 96), Fixed: s, Seed: 1}
	}

	kDefault, err := mk("").Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"fp32", "float32"} {
		k, err := mk(spelling).Key()
		if err != nil {
			t.Fatalf("%q: %v", spelling, err)
		}
		if k != kDefault {
			t.Fatalf("fp32 spelling %q hashed to %s, want the pre-knob address %s", spelling, k, kDefault)
		}
	}

	kInt8, err := mk("int8").Key()
	if err != nil {
		t.Fatal(err)
	}
	if kInt8 == kDefault {
		t.Fatal("int8 spec shares the fp32 cache address")
	}

	// Unknown precisions fail at Normalize, before any simulation.
	if _, err := mk("int4").Normalize(); err == nil || !strings.Contains(err.Error(), "precision") {
		t.Fatalf("bad precision not rejected: %v", err)
	}
}
