package classifier

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/cnn"
	"hsas/internal/isp"
	"hsas/internal/raster"
	"hsas/internal/world"
)

func TestKindMetadata(t *testing.T) {
	if Road.NumClasses() != 3 || Lane.NumClasses() != 4 || Scene.NumClasses() != 5 {
		t.Fatal("class counts do not match Table IV")
	}
	if Road.String() != "road" || Lane.String() != "lane" || Scene.String() != "scene" {
		t.Fatal("kind stringers broken")
	}
	for _, k := range []Kind{Road, Lane, Scene} {
		if _, ok := PaperAccuracy[k]; !ok {
			t.Fatalf("no paper accuracy for %v", k)
		}
		if _, ok := PaperDataset[k]; !ok {
			t.Fatalf("no paper dataset size for %v", k)
		}
	}
}

func TestLabels(t *testing.T) {
	sit := world.Situation{
		Layout: world.RightTurn,
		Lane:   world.LaneMarking{Color: world.Yellow, Form: world.Continuous},
		Scene:  world.Dusk,
	}
	if l, ok := Road.Label(sit); !ok || l != int(world.RightTurn) {
		t.Fatalf("road label = %d %v", l, ok)
	}
	if l, ok := Lane.Label(sit); !ok || l != 2 {
		t.Fatalf("lane label = %d %v", l, ok)
	}
	if l, ok := Scene.Label(sit); !ok || l != int(world.Dusk) {
		t.Fatalf("scene label = %d %v", l, ok)
	}
	bad := sit
	bad.Lane = world.LaneMarking{Color: world.White, Form: world.DoubleContinuous}
	if _, ok := Lane.Label(bad); ok {
		t.Fatal("unclassifiable lane accepted")
	}
}

func TestGenerateBalancedAndLabeled(t *testing.T) {
	cfg := DatasetConfig{N: 30, InW: 32, InH: 16, Seed: 5, ISPConfig: "S5"}
	samples := Generate(Road, cfg)
	if len(samples) != 30 {
		t.Fatalf("generated %d samples", len(samples))
	}
	counts := map[int]int{}
	for _, s := range samples {
		if s.Label < 0 || s.Label >= Road.NumClasses() {
			t.Fatalf("label out of range: %d", s.Label)
		}
		if s.X.C != 3 || s.X.H != 16 || s.X.W != 32 {
			t.Fatalf("sample shape %dx%dx%d", s.X.C, s.X.H, s.X.W)
		}
		counts[s.Label]++
	}
	for c := 0; c < Road.NumClasses(); c++ {
		if counts[c] == 0 {
			t.Fatalf("class %d absent from balanced dataset", c)
		}
	}
}

// TestGenerateMatchesFreshRenderers pins Generate's output for every
// kind: each sample's input bits and label must equal those of a loop
// that draws the same situations and poses but builds a fresh renderer
// for every sample.
func TestGenerateMatchesFreshRenderers(t *testing.T) {
	for _, kind := range []Kind{Road, Lane, Scene} {
		cfg := DatasetConfig{N: 2 * kind.NumClasses(), InW: 40, InH: 20, Seed: 9, ISPConfig: "S3", WhiteBalance: kind == Lane}
		got, want := Generate(kind, cfg), generateFresh(kind, cfg)
		if len(got) != len(want) {
			t.Fatalf("%v: %d samples, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label {
				t.Fatalf("%v sample %d: label %d, want %d", kind, i, got[i].Label, want[i].Label)
			}
			for j, v := range want[i].X.Data {
				if math.Float32bits(got[i].X.Data[j]) != math.Float32bits(v) {
					t.Fatalf("%v sample %d: input %d is %v, want %v", kind, i, j, got[i].X.Data[j], v)
				}
			}
		}
	}
}

// generateFresh is Generate with a new renderer built for every sample.
func generateFresh(kind Kind, cfg DatasetConfig) []cnn.Sample {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cam := camera.Scaled(cfg.InW, cfg.InH)
	ispCfg, _ := isp.ByID(cfg.ISPConfig)
	var samples []cnn.Sample
	for i := 0; i < cfg.N; i++ {
		class := i % kind.NumClasses()
		sit := sampleSituation(kind, class, rng)
		tr := world.SituationTrack(sit)
		s := 5 + rng.Float64()*20
		if sit.Layout != world.Straight {
			s = world.LeadInLength + rng.Float64()*15
		}
		lat := (rng.Float64() - 0.5) * 0.8
		dpsi := (rng.Float64() - 0.5) * 0.08
		raw := camera.NewRenderer(tr, cam).RenderRAW(camera.PoseOnTrack(tr, s, lat, dpsi), rng.Int63())
		samples = append(samples, cnn.Sample{X: toInput(ispCfg.Process(raw), cfg.WhiteBalance), Label: class})
	}
	return samples
}

func TestSplitDisjointAndComplete(t *testing.T) {
	cfg := DatasetConfig{N: 40, InW: 16, InH: 8, Seed: 2, ISPConfig: "S5"}
	samples := Generate(Scene, cfg)
	train, val := Split(samples, 0.25, 1)
	if len(train)+len(val) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(train), len(val), len(samples))
	}
	if len(val) != 10 {
		t.Fatalf("val size = %d, want 10", len(val))
	}
}

// TestTrainSceneClassifier trains a tiny scene classifier and requires it
// to beat chance comfortably — the full-scale run (cmd/train-classifiers)
// reproduces the near-saturated Table IV accuracies.
func TestTrainSceneClassifier(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short")
	}
	dcfg := DatasetConfig{N: 250, InW: 32, InH: 16, Seed: 3, ISPConfig: "S0"}
	tcfg := cnn.DefaultTrainConfig()
	tcfg.Epochs = 10
	c, rep, err := Train(Scene, dcfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValAccuracy < 0.6 {
		t.Fatalf("scene val accuracy %v (chance is 0.2)", rep.ValAccuracy)
	}
	if c.Kind != Scene || c.Net == nil {
		t.Fatal("classifier malformed")
	}
}

func TestClassifyResizes(t *testing.T) {
	net, err := cnn.ResNetLite(3, 16, 32, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{Kind: Road, Net: net, InW: 32, InH: 16}
	img := raster.NewRGB(512, 256) // wrong size: must be resized, not panic
	if pred := c.Classify(img); pred < 0 || pred >= 3 {
		t.Fatalf("prediction out of range: %d", pred)
	}
}

func TestToTensorLayoutCentered(t *testing.T) {
	img := raster.NewRGB(2, 1)
	img.Set(0, 0, 0.1, 0.2, 0.3)
	img.Set(1, 0, 0.4, 0.5, 0.6)
	tens := ToTensor(img)
	// Inputs are mean-centered by 0.5 in CHW order.
	close := func(a, b float32) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if !close(tens.At(0, 0, 0), -0.4) || !close(tens.At(1, 0, 0), -0.3) || !close(tens.At(2, 0, 1), 0.1) {
		t.Fatalf("tensor layout wrong: %v", tens.Data)
	}
}

func TestOracle(t *testing.T) {
	sit := world.Situation{Layout: world.LeftTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Dotted}, Scene: world.Night}
	if (Oracle{Kind: Road}).ClassifySituation(sit) != int(world.LeftTurn) {
		t.Fatal("road oracle wrong")
	}
	if (Oracle{Kind: Scene}).ClassifySituation(sit) != int(world.Night) {
		t.Fatal("scene oracle wrong")
	}
}
