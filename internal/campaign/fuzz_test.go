package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"hsas/internal/camera"
)

// FuzzJobSpecNormalize drives the job front door with arbitrary JSON:
// Normalize must never panic, and a normalized spec must be a fixed
// point — normalizing it again returns an equal spec with the same
// content address.
func FuzzJobSpecNormalize(f *testing.F) {
	traced := tinyJob(1)
	traced.RecordTrace = true
	faulty := JobSpec{Situation: testSit(), Camera: camera.Camera{Width: 96, Height: 48}, Case: 3, Seed: 7,
		Faults: "noise:mag=0.2,p=0.1;drop:p=0.05"}
	fixed := tinyJob(2)
	fixed.Fixed.Precision = "int8"
	for _, j := range []JobSpec{tinyJob(1), traced, faulty, fixed} {
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j JobSpec
		if json.Unmarshal(data, &j) != nil {
			return
		}
		n, err := j.Normalize()
		if err != nil {
			return
		}
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v fails to normalize again: %v", n, err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", n, n2)
		}
		k1, err1 := j.Key()
		k2, err2 := n2.Key()
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("keys differ: %s (%v) vs %s (%v)", k1, err1, k2, err2)
		}
	})
}
