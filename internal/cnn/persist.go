package cnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"hsas/internal/mat"
)

// Snapshot is the serialized form of a trained network: the architecture
// identifier plus all parameter tensors in layer order, and the
// per-tensor symmetric int8 quantization scales computed from them
// (quantize-after-training calibration, persisted alongside the weights
// so the quantized path's calibration travels with the model).
type Snapshot struct {
	Arch          string // "resnetlite"
	InC, InH, InW int
	Classes       int
	Weights       [][]float32
	// Scales holds mat.Scale8 of each Weights tensor, in the same order.
	// Empty in pre-quantization snapshots (accepted: the scales are a
	// pure function of the weights and are recomputed); when present it
	// must match the recomputed values exactly, which doubles as a cheap
	// integrity check on the weight payload.
	Scales []float32
}

// maxSnapshotDim bounds the geometry fields a Snapshot may carry: gob
// payloads come from disk, and an absurd shape must fail cleanly instead
// of attempting a multi-gigabyte allocation.
const maxSnapshotDim = 1 << 14

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

// WeightScales returns the per-tensor symmetric int8 quantization scale
// (mat.Scale8) of every parameter tensor, in Weights order. Biases get a
// scale too — harmless, and it keeps the two lists parallel.
func (n *Network) WeightScales() []float32 {
	var out []float32
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			out = append(out, mat.Scale8(p.Data))
		}
	}
	return out
}

// SetWeights loads parameter tensors produced by Weights.
func (n *Network) SetWeights(ws [][]float32) error {
	i := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			if i >= len(ws) {
				return fmt.Errorf("cnn: weight list too short at %d", i)
			}
			if len(ws[i]) != len(p.Data) {
				return fmt.Errorf("cnn: weight %d has %d values, want %d", i, len(ws[i]), len(p.Data))
			}
			copy(p.Data, ws[i])
			i++
		}
	}
	if i != len(ws) {
		return fmt.Errorf("cnn: %d extra weight tensors", len(ws)-i)
	}
	return nil
}

// Save serializes a ResNetLite network to w.
func Save(w io.Writer, n *Network) error {
	snap := Snapshot{
		Arch: "resnetlite",
		InC:  n.InC, InH: n.InH, InW: n.InW,
		Classes: n.NumClasses(),
		Weights: n.Weights(),
		Scales:  n.WeightScales(),
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load deserializes a network saved with Save. Snapshots whose layer
// shapes, tensor counts or tensor lengths disagree with the declared
// architecture are rejected — a truncated or corrupted file must error,
// never silently mis-infer.
func Load(r io.Reader) (*Network, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("cnn: decode snapshot: %w", err)
	}
	if snap.Arch != "resnetlite" {
		return nil, fmt.Errorf("cnn: unknown architecture %q", snap.Arch)
	}
	for _, d := range [...]struct {
		name string
		v    int
	}{{"InC", snap.InC}, {"InH", snap.InH}, {"InW", snap.InW}, {"Classes", snap.Classes}} {
		if d.v <= 0 || d.v > maxSnapshotDim {
			return nil, fmt.Errorf("cnn: snapshot %s = %d outside 1..%d", d.name, d.v, maxSnapshotDim)
		}
	}
	n, err := ResNetLite(snap.InC, snap.InH, snap.InW, snap.Classes, 0)
	if err != nil {
		return nil, err
	}
	if err := n.SetWeights(snap.Weights); err != nil {
		return nil, err
	}
	if len(snap.Scales) > 0 {
		// The persisted calibration is a pure function of the weights;
		// verifying it bit-exactly doubles as an integrity check.
		want := n.WeightScales()
		if len(snap.Scales) != len(want) {
			return nil, fmt.Errorf("cnn: snapshot has %d quantization scales, want %d", len(snap.Scales), len(want))
		}
		for i, s := range snap.Scales {
			if s != want[i] {
				return nil, fmt.Errorf("cnn: quantization scale %d is %v, want %v (weights corrupted?)", i, s, want[i])
			}
		}
	}
	return n, nil
}

// SaveFile writes the network to the named file.
func SaveFile(path string, n *Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(f, n); err != nil {
		return err
	}
	return f.Close()
}
