package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMAEBasics(t *testing.T) {
	var m MAE
	if m.Value() != 0 {
		t.Fatal("empty MAE not 0")
	}
	m.Add(1)
	m.Add(-3)
	if m.Value() != 2 || m.N() != 2 {
		t.Fatalf("MAE = %v n=%d", m.Value(), m.N())
	}
}

func TestMAENonNegativeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var m MAE
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			m.Add(v)
		}
		return m.Value() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMAEMerge(t *testing.T) {
	var a, b MAE
	a.Add(2)
	b.Add(4)
	b.Add(6)
	a.Merge(b)
	if a.N() != 3 || a.Value() != 4 {
		t.Fatalf("merged = %v n=%d", a.Value(), a.N())
	}
}

func TestPerSector(t *testing.T) {
	p := NewPerSector(3)
	p.Add(1, 1)
	p.Add(2, 2)
	p.Add(2, 4)
	p.Add(0, 100) // out of range: ignored
	p.Add(4, 100) // out of range: ignored
	if p.Sector(1) != 1 || p.Sector(2) != 3 || p.Sector(3) != 0 {
		t.Fatalf("sectors = %v %v %v", p.Sector(1), p.Sector(2), p.Sector(3))
	}
	if p.Overall() != (1+2+4)/3.0 {
		t.Fatalf("overall = %v", p.Overall())
	}
	if p.Len() != 3 || p.SectorN(2) != 2 {
		t.Fatal("metadata wrong")
	}
}

func TestNormalizeTo(t *testing.T) {
	out := NormalizeTo([]float64{2, 6, 1}, []float64{2, 3, 0})
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("normalize = %v", out)
	}
	if !math.IsNaN(out[2]) {
		t.Fatal("zero base must produce NaN")
	}
}

func TestImprovement(t *testing.T) {
	// better is half of baseline everywhere -> 50% improvement.
	got := Improvement([]float64{1, 2}, []float64{2, 4})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("improvement = %v", got)
	}
	// Sectors with NaN (crashes) are excluded.
	got = Improvement([]float64{1, math.NaN()}, []float64{2, 100})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("improvement with NaN = %v", got)
	}
	if Improvement(nil, nil) != 0 {
		t.Fatal("empty improvement not 0")
	}
}

func TestDetectionAccuracy(t *testing.T) {
	d := DetectionAccuracy{Tol: 0.3}
	d.Add(0.1, 0.2, true)  // within tol
	d.Add(1.0, 0.2, true)  // off
	d.Add(0.2, 0.2, false) // not detected
	if math.Abs(d.Value()-1.0/3) > 1e-12 || d.total != 3 {
		t.Fatalf("accuracy = %v n=%d", d.Value(), d.total)
	}
	var empty DetectionAccuracy
	if empty.Value() != 0 {
		t.Fatal("empty accuracy not 0")
	}
}
