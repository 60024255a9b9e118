package cnn

import (
	"math"
	"math/rand"
	"testing"
)

// toyDataset builds a deterministic synthetic classification set: class k
// gets a distinct spatial mean pattern plus noise.
func toyDataset(n, classes, c, h, w int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		label := i % classes
		x := NewTensor(c, h, w)
		for j := range x.Data {
			x.Data[j] = float32(label)*0.5 + float32(rng.NormFloat64())*0.3
		}
		samples[i] = Sample{X: x, Label: label}
	}
	return samples
}

// Weights returns copies of all parameter tensors in layer order.
func (n *Network) Weights() [][]float32 {
	var out [][]float32
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			w := make([]float32, len(p.Data))
			copy(w, p.Data)
			out = append(out, w)
		}
	}
	return out
}

func trainedWeights(t *testing.T, samples []Sample, workers int) ([][]float32, float64, float64) {
	t.Helper()
	net, err := ResNetLite(2, 12, 12, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 5 // 13 samples -> batches of 5, 5, 3: exercises the tail
	cfg.Workers = workers
	loss, acc := net.Fit(samples, cfg)
	return net.Weights(), loss, acc
}

// TestFitParallelBitIdentical pins the deterministic-reduction contract:
// training with any worker count produces bit-identical weights and
// identical epoch statistics. Run under -race in CI, this is also the
// data-race test for the parallel trainer.
func TestFitParallelBitIdentical(t *testing.T) {
	samples := toyDataset(13, 3, 2, 12, 12, 4)
	wantW, wantLoss, wantAcc := trainedWeights(t, samples, 1)
	for _, workers := range []int{2, 3, 4} {
		gotW, gotLoss, gotAcc := trainedWeights(t, samples, workers)
		if gotLoss != wantLoss || gotAcc != wantAcc {
			t.Fatalf("workers=%d: loss/acc %v/%v, want %v/%v", workers, gotLoss, gotAcc, wantLoss, wantAcc)
		}
		if len(gotW) != len(wantW) {
			t.Fatalf("workers=%d: %d weight tensors, want %d", workers, len(gotW), len(wantW))
		}
		for pi := range gotW {
			for i := range gotW[pi] {
				if math.Float32bits(gotW[pi][i]) != math.Float32bits(wantW[pi][i]) {
					t.Fatalf("workers=%d: weight tensor %d element %d = %v, want %v",
						workers, pi, i, gotW[pi][i], wantW[pi][i])
				}
			}
		}
	}
}

// TestFitWorkersExceedingBatch checks the worker bound is clamped to the
// batch size and still trains correctly.
func TestFitWorkersExceedingBatch(t *testing.T) {
	samples := toyDataset(6, 2, 1, 8, 8, 5)
	net, err := ResNetLite(1, 8, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 2
	cfg.Workers = 16
	if _, acc := net.Fit(samples, cfg); acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

// TestCloneForTrainingShares checks replicas alias weights but own
// gradients.
func TestCloneForTrainingShares(t *testing.T) {
	net, err := ResNetLite(1, 8, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	clone := cloneForTraining(net)
	mainParams := newTrainReplica(net).params
	cloneParams := newTrainReplica(clone).params
	if len(mainParams) != len(cloneParams) {
		t.Fatalf("param count %d vs %d", len(cloneParams), len(mainParams))
	}
	for i := range mainParams {
		if &mainParams[i].Data[0] != &cloneParams[i].Data[0] {
			t.Fatalf("param %d: clone does not share weight storage", i)
		}
		if &mainParams[i].Grad[0] == &cloneParams[i].Grad[0] {
			t.Fatalf("param %d: clone shares gradient storage", i)
		}
	}
}
