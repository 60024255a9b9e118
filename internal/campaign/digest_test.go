package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/knobs"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// digestSpecs are the fixed runs TestOutputDigests pins: every Table V
// case, a correlated-plus-occlusion fault mix, a mix firing every other
// fault kind (drop, noise, ISP band, stuck-at, bit flip, overrun and
// the deadline watchdog), int8 precision, the curvature feedforward and
// the graceful-degradation policies, both hold-last and coasting. Each is
// a whole course at 64×32, so the set runs in about five seconds.
func digestSpecs() map[string]JobSpec {
	sit := func(i int) *world.Situation {
		s := world.PaperSituations[i-1]
		return &s
	}
	cam := camera.Scaled(64, 32)
	specs := map[string]JobSpec{
		"faults": {Situation: sit(11), Camera: cam, Case: 3, Seed: 7,
			Faults: "corr:lane,mag=0.4,p=0.2;occlude:frac=0.3"},
		"int8": {Situation: sit(9), Camera: cam, Seed: 3, FixedClassifiers: 3,
			Fixed: &knobs.Setting{ISP: "S2", ROI: 3, SpeedKmph: knobs.Speeds[0], Precision: knobs.PrecisionInt8}},
		"feedforward": {Situation: sit(15), Camera: cam, Case: 4, Seed: 5, UseFeedforward: true},
		"degrade": {Situation: sit(2), Camera: cam, Case: 1, Seed: 9, Faults: "drop:p=0.1",
			Degrade: &sim.Degradation{Enabled: true, FallbackAfter: 2, RecoverAfter: 3}},
		"allfaults": {Situation: sit(1), Camera: cam, Case: 4, Seed: 7,
			Faults: "drop:p=0.05;noise:mag=0.2@10-30;isp:rows=0.5,p=0.5@30-50;stuck:road=0@50-70;flip:lane,p=0.3;overrun:ms=40,p=0.2"},
		"coast": {Situation: sit(2), Camera: cam, Case: 1, Seed: 9, Faults: "drop:p=0.1",
			Degrade: &sim.Degradation{Enabled: true, DisableHoldLast: true}},
	}
	for c, s := range []int{1, 8, 5, 19, 13} {
		specs["case"+strconv.Itoa(c+1)] = JobSpec{Situation: sit(s), Camera: cam, Case: c + 1, Seed: int64(c + 1)}
	}
	return specs
}

// digestPins holds, per SimVersion, the SHA-256 of each digest spec's
// JobResult JSON (wall time zeroed) followed by its trace CSV, as
// computed on amd64.
var digestPins = map[int]map[string]string{
	5: {
		"case1":       "f96f39183c41ba5aea95d231365df7f9ca9ad916af7122b7beefe1fb5b9c49aa",
		"case2":       "f24f81ea1450b7f94cc19afa0f0f34b35ee8bbb0242e714a4b382a8dd7d38030",
		"case3":       "0b2ab11f48c1e8c59c13f50ebeff529974f377ef41333b9fbd4eade348ec7a1c",
		"case4":       "48823306ebfec1bf36ad7ce085bda8818041e41a6972e332696f77541a8fa9cd",
		"case5":       "d94c041395a87e133f1b974dcf9f6108c289f8617a208a1561e391a51cffa597",
		"faults":      "582e37e00f46995431ab3ece6c336c4894724194147558a94f18837762d707aa",
		"int8":        "17f5a08d1d8231945b0c59c673c3e161a0cfc3536cd7a8acd5ff4c470b0723ce",
		"feedforward": "e70e579901bd2ee12c2c9cf811b111c4c8dc64f7ddd7dc92f8418802ed9544b8",
		"degrade":     "8a38f6dc6d7bef92254a61d6bc56ef3d759889b3f9a9f2f2bf0f54b228d4d352",
		"allfaults":   "f56b774670281dacd55c0ca461f406f36e63464c1a75092778e1cf483b95d48e",
		"coast":       "a37180c7c6c02d646f6beb2483e17ed1832c615f327ffad5a9659576c47e3717",
	},
}

// TestOutputDigests is the determinism contract in CI: any change that
// moves an output bit of a closed-loop run fails here until SimVersion
// is bumped (which also retires every cached result) and the digests
// are re-pinned under the new version.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The pins are amd64 bits. Other backends (arm64 among them)
		// fuse multiply-adds, which rounds differently.
		t.Skipf("output digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	pins, ok := digestPins[SimVersion]
	if !ok {
		t.Fatalf("no output digests pinned for SimVersion %d: pin them in digestPins", SimVersion)
	}
	for name, spec := range digestSpecs() {
		spec.RecordTrace = true
		n, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, _, csv, err := n.run(1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.WallMS = 0
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		h.Write(js)
		h.Write(csv)
		got := hex.EncodeToString(h.Sum(nil))
		if want := pins[name]; got != want {
			t.Errorf("%s: digest %s, pinned %s: output bits changed: bump SimVersion", name, got, want)
		}
	}
}
