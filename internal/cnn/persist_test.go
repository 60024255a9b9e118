package cnn

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPersistTrainedRoundTrip trains a small network, saves it to disk,
// reloads it, and asserts the reloaded network carries bit-identical
// weights and produces identical Infer labels.
func TestPersistTrainedRoundTrip(t *testing.T) {
	samples := toyDataset(12, 3, 2, 12, 12, 8)
	net, err := ResNetLite(2, 12, 12, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 4
	net.Fit(samples, cfg)

	path := filepath.Join(t.TempDir(), "net.gob")
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}

	wantW, gotW := net.Weights(), loaded.Weights()
	if len(gotW) != len(wantW) {
		t.Fatalf("weight tensor count %d, want %d", len(gotW), len(wantW))
	}
	for pi := range wantW {
		if len(gotW[pi]) != len(wantW[pi]) {
			t.Fatalf("weight tensor %d length %d, want %d", pi, len(gotW[pi]), len(wantW[pi]))
		}
		for i := range wantW[pi] {
			if math.Float32bits(gotW[pi][i]) != math.Float32bits(wantW[pi][i]) {
				t.Fatalf("weight tensor %d element %d = %v, want %v", pi, i, gotW[pi][i], wantW[pi][i])
			}
		}
	}

	for i, s := range samples {
		if got, want := loaded.Infer(s.X), net.Infer(s.X); got != want {
			t.Fatalf("sample %d: reloaded Infer = %d, original = %d", i, got, want)
		}
	}
}

// snapshotBytes builds a small trained snapshot and returns its gob
// encoding plus the decoded Snapshot for mutation-based corruption tests.
func snapshotBytes(t testing.TB) ([]byte, Snapshot) {
	t.Helper()
	net, err := ResNetLite(1, 8, 8, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

func encodeSnapshot(t testing.TB, snap Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsCorruptSnapshots: every class of on-disk corruption —
// truncation, junk bytes, wrong architecture, absurd geometry, missing
// or extra weight tensors, tampered weights with stale scales — must
// error cleanly, never panic or silently mis-infer.
func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	raw, snap := snapshotBytes(t)

	mutate := func(f func(Snapshot) Snapshot) []byte {
		// Re-decode for a deep-enough copy: f may mutate slices.
		var s Snapshot
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return encodeSnapshot(t, f(s))
	}

	tests := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty file", nil, "decode snapshot"},
		{"truncated gob", raw[:len(raw)/2], "decode snapshot"},
		{"junk bytes", []byte("not a gob stream"), "decode snapshot"},
		{"wrong arch", mutate(func(s Snapshot) Snapshot { s.Arch = "vgg99"; return s }), `unknown architecture "vgg99"`},
		{"zero classes", mutate(func(s Snapshot) Snapshot { s.Classes = 0; return s }), "Classes = 0"},
		{"negative height", mutate(func(s Snapshot) Snapshot { s.InH = -4; return s }), "InH = -4"},
		{"absurd width", mutate(func(s Snapshot) Snapshot { s.InW = 1 << 20; return s }), "InW"},
		{"weights missing", mutate(func(s Snapshot) Snapshot { s.Weights = s.Weights[:len(s.Weights)-1]; s.Scales = nil; return s }), "weight list too short"},
		{"weight length wrong", mutate(func(s Snapshot) Snapshot { s.Weights[0] = s.Weights[0][:1]; s.Scales = nil; return s }), "weight 0 has 1 values"},
		{"extra tensor", mutate(func(s Snapshot) Snapshot { s.Weights = append(s.Weights, []float32{1}); s.Scales = nil; return s }), "extra weight tensors"},
		{"scale count wrong", mutate(func(s Snapshot) Snapshot { s.Scales = s.Scales[:1]; return s }), "quantization scales"},
		{"tampered weight stale scale", mutate(func(s Snapshot) Snapshot {
			// Inflate the largest-magnitude position of tensor 0 so the
			// recomputed Scale8 disagrees with the persisted calibration.
			s.Weights[0][0] = 1e6
			return s
		}), "weights corrupted"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Sanity: the unmutated bytes still load, so the cases above fail for
	// the injected corruption and not a broken fixture.
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	_ = snap
}

// TestLoadAcceptsPreQuantizationSnapshot: snapshots written before the
// Scales field existed (empty Scales) still load — the calibration is a
// pure function of the weights and is recomputed.
func TestLoadAcceptsPreQuantizationSnapshot(t *testing.T) {
	raw, _ := snapshotBytes(t)
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.Scales = nil
	if _, err := Load(bytes.NewReader(encodeSnapshot(t, s))); err != nil {
		t.Fatalf("pre-quantization snapshot rejected: %v", err)
	}
}

// FuzzLoad: Load must never panic or over-allocate on arbitrary bytes —
// every outcome is either a valid network or a clean error.
func FuzzLoad(f *testing.F) {
	raw, _ := snapshotBytes(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/3])
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err == nil && n == nil {
			t.Fatal("Load returned nil network with nil error")
		}
	})
}
