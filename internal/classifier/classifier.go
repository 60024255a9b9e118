// Package classifier implements the paper's three light-weight CNN
// situation classifiers (Table IV): road layout (straight / left turn /
// right turn), lane type (white continuous / white dotted / yellow
// continuous / yellow double) and scene (day / night / dark / dawn /
// dusk). It generates labeled synthetic datasets with the renderer,
// trains ResNet-style networks from internal/cnn, and wraps inference for
// the runtime reconfiguration loop.
package classifier

import (
	"fmt"
	"math/rand"
	"time"

	"hsas/internal/camera"
	"hsas/internal/cnn"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// Kind identifies one of the three situation classifiers.
type Kind uint8

// The three classifiers of Table IV.
const (
	Road Kind = iota
	Lane
	Scene
)

func (k Kind) String() string {
	switch k {
	case Road:
		return "road"
	case Lane:
		return "lane"
	case Scene:
		return "scene"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumClasses returns the class count of the classifier (Table IV).
func (k Kind) NumClasses() int {
	switch k {
	case Road:
		return world.NumRoadClasses
	case Lane:
		return world.NumLaneClasses
	default:
		return world.NumSceneClasses
	}
}

// Label maps a situation to the classifier's class index. ok is false for
// lane markings outside the classifier's four classes.
func (k Kind) Label(sit world.Situation) (int, bool) {
	switch k {
	case Road:
		return int(sit.Layout), true
	case Lane:
		return world.LaneClass(sit.Lane)
	default:
		return int(sit.Scene), true
	}
}

// PaperAccuracy and PaperDataset record Table IV for comparison in
// EXPERIMENTS.md.
var (
	PaperAccuracy = map[Kind]float64{Road: 0.9992, Lane: 0.9997, Scene: 0.9990}
	PaperDataset  = map[Kind][2]int{ // train, val
		Road:  {5353, 513},
		Lane:  {3939, 842},
		Scene: {3892, 811},
	}
)

// DatasetConfig controls synthetic dataset generation.
type DatasetConfig struct {
	N         int   // total samples
	InW, InH  int   // classifier input resolution
	Seed      int64 //
	ISPConfig string
}

// DefaultDatasetConfig returns the laptop-scale defaults for a classifier
// kind. The paper's dataset sizes (Table IV) are reproduced by
// cmd/train-classifiers with -paper-scale; the class taxonomy is
// identical either way. Every classifier sees the ISP output as is: the
// scene classifier's features are exactly the global tint and brightness.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{N: 1200, InW: 48, InH: 24, Seed: 1, ISPConfig: "S0"}
}

// DatasetConfigFor returns the per-kind dataset defaults: the lane
// classifier needs a higher input resolution because dash patterns and
// the double-marking gap are fine spatial detail.
func DatasetConfigFor(kind Kind) DatasetConfig {
	cfg := DefaultDatasetConfig()
	if kind == Lane {
		cfg.InW, cfg.InH = 80, 40
	}
	return cfg
}

// TrainConfigFor returns the per-kind training defaults: the lane
// classifier's larger input and high scene diversity need a lower
// learning rate to converge.
func TrainConfigFor(kind Kind) cnn.TrainConfig {
	cfg := cnn.DefaultTrainConfig()
	if kind == Lane {
		cfg.LR = 0.01
		cfg.Epochs = 16
	}
	return cfg
}

// Generate renders a labeled dataset for the classifier kind. Situations
// are sampled class-balanced; vehicle pose is jittered laterally and in
// heading as during closed-loop operation. One renderer serves every
// sample: its tables depend on the camera alone, and each frame builds
// its track view from the sample's track.
func Generate(kind Kind, cfg DatasetConfig) []cnn.Sample {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ispCfg, ok := isp.ByID(cfg.ISPConfig)
	if !ok {
		panic(fmt.Sprintf("classifier: unknown ISP config %q", cfg.ISPConfig))
	}
	rend := camera.NewRenderer(nil, camera.Scaled(cfg.InW, cfg.InH))
	samples := make([]cnn.Sample, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		class := i % kind.NumClasses()
		sit := sampleSituation(kind, class, rng)
		tr := world.SituationTrack(sit)
		rend.Track = tr

		// Pose inside the situation segment with closed-loop-like jitter.
		s := 5 + rng.Float64()*20
		if sit.Layout != world.Straight {
			s = world.LeadInLength + rng.Float64()*15
		}
		lat := (rng.Float64() - 0.5) * 0.8
		dpsi := (rng.Float64() - 0.5) * 0.08
		raw := rend.RenderRAW(camera.PoseOnTrack(tr, s, lat, dpsi), rng.Int63())
		img := ispCfg.Process(raw)
		samples = append(samples, cnn.Sample{X: ToTensor(img), Label: class})
	}
	return samples
}

// sampleSituation draws a situation whose label under kind equals class,
// with the remaining factors uniform.
func sampleSituation(kind Kind, class int, rng *rand.Rand) world.Situation {
	layouts := []world.RoadLayout{world.Straight, world.LeftTurn, world.RightTurn}
	scenes := []world.Scene{world.Day, world.Night, world.Dark, world.Dawn, world.Dusk}
	sit := world.Situation{
		Layout: layouts[rng.Intn(len(layouts))],
		Lane:   world.LaneMarkingForClass(rng.Intn(world.NumLaneClasses)),
		Scene:  scenes[rng.Intn(len(scenes))],
	}
	switch kind {
	case Road:
		sit.Layout = world.RoadLayout(class)
	case Lane:
		sit.Lane = world.LaneMarkingForClass(class)
		// Lane type is invisible in the dark beyond the headlights; the
		// paper's lane dataset is day/night imagery.
		sit.Scene = []world.Scene{world.Day, world.Night, world.Dawn, world.Dusk}[rng.Intn(4)]
	default:
		sit.Scene = world.Scene(class)
	}
	return sit
}

// ToTensor converts an RGB image into a mean-centered CHW tensor for the
// network (inputs in [-0.5, 0.5] condition the first layer's gradients).
func ToTensor(img *raster.RGB) *cnn.Tensor {
	return toTensorInto(cnn.NewTensor(3, img.H, img.W), img)
}

// toTensorInto is ToTensor writing into a caller-held 3×H×W tensor.
// Every element is written.
func toTensorInto(t *cnn.Tensor, img *raster.RGB) *cnn.Tensor {
	n := img.W * img.H
	for i := 0; i < n; i++ {
		t.Data[i] = img.R[i] - 0.5
		t.Data[n+i] = img.G[i] - 0.5
		t.Data[2*n+i] = img.B[i] - 0.5
	}
	return t
}

// Split partitions samples into train and validation sets (the paper's
// ~90/10 split), shuffled deterministically.
func Split(samples []cnn.Sample, valFrac float64, seed int64) (train, val []cnn.Sample) {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(samples))
	nVal := int(float64(len(samples)) * valFrac)
	for i, j := range idx {
		if i < nVal {
			val = append(val, samples[j])
		} else {
			train = append(train, samples[j])
		}
	}
	return train, val
}

// Classifier is a trained situation classifier ready for the runtime loop.
// Classify reuses per-classifier input scratch (and the network's layer
// output caches), so a Classifier must not run Classify concurrently
// with itself.
type Classifier struct {
	Kind     Kind
	Net      *cnn.Network
	InW, InH int

	// precision is the canonical arithmetic-precision knob value Classify
	// runs at (knobs.PrecisionFP32 or knobs.PrecisionInt8); qnet is the
	// quantized companion network, built on the first switch to int8.
	precision string
	qnet      *cnn.QNet
	// kernelWorkers remembers the last SetKernelWorkers bound so a
	// lazily-built qnet inherits it.
	kernelWorkers int
	workersSet    bool

	// Inference scratch, lazily sized on first Classify.
	resized *raster.RGB
	input   *cnn.Tensor
}

// SetPrecision selects the arithmetic precision Classify runs at:
// knobs.PrecisionFP32 (also "fp32"/"float32") for the float32 network,
// knobs.PrecisionInt8 for the quantize-after-training int8 path. The
// quantized companion network is built once, on the first switch to
// int8, from the trained float32 weights; switching back and forth
// afterwards is free.
func (c *Classifier) SetPrecision(p string) error {
	canon, err := knobs.ParsePrecision(p)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	if canon == knobs.PrecisionInt8 && c.qnet == nil {
		q, err := cnn.Quantize(c.Net)
		if err != nil {
			return fmt.Errorf("classifier: quantizing %v classifier: %w", c.Kind, err)
		}
		if c.workersSet {
			q.SetKernelWorkers(c.kernelWorkers)
		}
		c.qnet = q
	}
	c.precision = canon
	return nil
}

// Precision returns the canonical precision Classify currently runs at.
func (c *Classifier) Precision() string { return c.precision }

// SetKernelWorkers bounds the goroutines used by the classifier's GEMM
// kernels on both precision paths (see cnn.Network.SetKernelWorkers for
// the 0 / negative conventions). Results are bit-identical for any
// worker count.
func (c *Classifier) SetKernelWorkers(n int) {
	c.kernelWorkers = n
	c.workersSet = true
	c.Net.SetKernelWorkers(n)
	if c.qnet != nil {
		c.qnet.SetKernelWorkers(n)
	}
}

// Report summarizes a training run (our analog of a Table IV row).
type Report struct {
	Kind          Kind
	TrainN, ValN  int
	TrainAccuracy float64
	ValAccuracy   float64
	Params        int
}

// Train generates a dataset, trains a ResNetLite and returns the
// classifier plus its report.
func Train(kind Kind, dcfg DatasetConfig, tcfg cnn.TrainConfig) (*Classifier, Report, error) {
	return TrainObserved(kind, dcfg, tcfg, nil)
}

// TrainObserved is Train with observability: per-epoch loss/accuracy is
// logged on o.Log (chaining any existing tcfg.Log callback) and gauged
// in o.Metrics, and dataset generation, fitting and evaluation each get
// a trace span. A nil observer is exactly Train.
func TrainObserved(kind Kind, dcfg DatasetConfig, tcfg cnn.TrainConfig, o *obs.Observer) (*Classifier, Report, error) {
	reg := o.Registry()
	var epochMark time.Time
	var epochSamples int
	if o.Enabled() {
		epochC := reg.Counter("hsas_train_epochs_total", "training epochs completed", obs.L("classifier", kind.String()))
		lossG := reg.Gauge("hsas_train_loss", "last epoch mean training loss", obs.L("classifier", kind.String()))
		accG := reg.Gauge("hsas_train_accuracy", "last epoch training accuracy", obs.L("classifier", kind.String()))
		secondsG := reg.Gauge("hsas_train_epoch_seconds", "wall time of the last training epoch", obs.L("classifier", kind.String()))
		ipsG := reg.Gauge("hsas_train_images_per_sec", "training throughput of the last epoch", obs.L("classifier", kind.String()))
		prev := tcfg.Log
		tcfg.Log = func(epoch int, loss, acc float64) {
			now := time.Now()
			elapsed := now.Sub(epochMark).Seconds()
			epochMark = now
			ips := 0.0
			if elapsed > 0 {
				ips = float64(epochSamples) / elapsed
			}
			epochC.Inc()
			lossG.Set(loss)
			accG.Set(acc)
			secondsG.Set(elapsed)
			ipsG.Set(ips)
			o.Logger().Info("train epoch", "classifier", kind.String(), "epoch", epoch, "loss", loss, "accuracy", acc,
				"seconds", elapsed, "images_per_sec", ips, "workers", tcfg.Workers)
			if prev != nil {
				prev(epoch, loss, acc)
			}
		}
	}

	start := o.Tracer().Begin()
	samples := Generate(kind, dcfg)
	o.Tracer().Span("generate", "classifier", 0, start,
		map[string]any{"classifier": kind.String(), "samples": len(samples)})

	train, val := Split(samples, 0.12, dcfg.Seed+100)
	net, err := cnn.ResNetLite(3, dcfg.InH, dcfg.InW, kind.NumClasses(), dcfg.Seed+200)
	if err != nil {
		return nil, Report{}, err
	}
	start = o.Tracer().Begin()
	epochMark = time.Now()
	epochSamples = len(train)
	_, trainAcc := net.Fit(train, tcfg)
	o.Tracer().Span("fit", "classifier", 0, start,
		map[string]any{"classifier": kind.String(), "epochs": tcfg.Epochs, "train_n": len(train)})

	start = o.Tracer().Begin()
	valAcc := net.Evaluate(val)
	o.Tracer().Span("evaluate", "classifier", 0, start,
		map[string]any{"classifier": kind.String(), "val_n": len(val)})

	rep := Report{
		Kind:          kind,
		TrainN:        len(train),
		ValN:          len(val),
		TrainAccuracy: trainAcc,
		ValAccuracy:   valAcc,
		Params:        net.NumParams(),
	}
	reg.Gauge("hsas_train_val_accuracy", "validation accuracy of the trained classifier",
		obs.L("classifier", kind.String())).Set(valAcc)
	o.Logger().Info("classifier trained",
		"classifier", kind.String(), "train_n", rep.TrainN, "val_n", rep.ValN,
		"train_accuracy", rep.TrainAccuracy, "val_accuracy", rep.ValAccuracy, "params", rep.Params)
	return &Classifier{Kind: kind, Net: net, InW: dcfg.InW, InH: dcfg.InH}, rep, nil
}

// Classify predicts the class of an ISP-processed frame, resizing to the
// network's input resolution and centering its values. Steady-state
// calls are allocation-free: the resize and tensor buffers are
// classifier-held scratch and the argmax comes from Net.Infer, which
// reuses the layer output caches.
func (c *Classifier) Classify(img *raster.RGB) int {
	if img.W != c.InW || img.H != c.InH {
		if c.resized == nil || c.resized.W != c.InW || c.resized.H != c.InH {
			c.resized = raster.NewRGB(c.InW, c.InH)
		}
		img = img.ResizeInto(c.resized)
	}
	if c.input == nil || c.input.H != img.H || c.input.W != img.W {
		c.input = cnn.NewTensor(3, img.H, img.W)
	}
	if c.precision == knobs.PrecisionInt8 {
		return c.qnet.Infer(toTensorInto(c.input, img))
	}
	return c.Net.Infer(toTensorInto(c.input, img))
}
