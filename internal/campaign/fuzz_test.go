package campaign

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/httpjson"
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

// FuzzDecodeGrid drives POST /v1/campaigns' decoding with arbitrary
// bodies; see checkDecode.
func FuzzDecodeGrid(f *testing.F) {
	for _, body := range []string{
		tinyGrid, tinyGrid + "\n", tinyGrid + tinyGrid, tinyGrid + "x",
		`{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"degrade":{}}`,
		`{"situations":[1],"cases":[1],"frobnicate":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[Grid](t, body) })
}

// checkDecode decodes body into a T through httpjson.Decode with a
// 256-byte limit and holds it to its oracle: the body is accepted
// exactly when it fits the limit, json.Unmarshal accepts it, a decoder
// that disallows unknown fields accepts it and only whitespace follows
// the value; and an accepted body decodes as json.Unmarshal decodes it.
func checkDecode[T any](t *testing.T, body []byte) {
	const limit = 256
	var got, want, strict T
	err := httpjson.Decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), limit, &got)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	valid := len(body) <= limit && json.Unmarshal(body, &want) == nil && dec.Decode(&strict) == nil &&
		len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0
	switch {
	case err == nil && !valid:
		t.Fatalf("Decode accepted %q", body)
	case err != nil && valid:
		t.Fatalf("Decode rejected %q: %v", body, err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("Decode(%q) = %+v, json.Unmarshal gives %+v", body, got, want)
	}
}
