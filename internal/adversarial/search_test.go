package adversarial

import (
	"errors"
	"math"
	"testing"
)

// countProbe wraps a pass predicate, recording evaluated magnitudes.
func countProbe(pass func(float64) bool) (Probe, *[]float64) {
	var seen []float64
	return func(mags []float64) ([]bool, error) {
		out := make([]bool, len(mags))
		for i, m := range mags {
			seen = append(seen, m)
			out[i] = pass(m)
		}
		return out, nil
	}, &seen
}

// TestBisectionInvariant is the satellite property test: for a monotone
// probe the search brackets the exact boundary within Tol using exactly
// ceil(log2(range/tol)) midpoint probes (plus the two endpoints).
func TestBisectionInvariant(t *testing.T) {
	for _, theta := range []float64{0.1, 0.31830988, 0.5, 0.73, 0.999} {
		tol := 1.0 / 1024
		probe, mags := countProbe(func(m float64) bool { return m <= theta })
		res, err := Search{Lo: 0, Hi: 1, Tol: tol}.FindMargin(probe)
		if err != nil {
			t.Fatalf("theta %g: %v", theta, err)
		}
		if res.Status != StatusBounded {
			t.Fatalf("theta %g: status %q, want bounded", theta, res.Status)
		}
		maxMid := int(math.Ceil(math.Log2(1 / tol))) // 10
		if mid := res.Probes - 2; mid > maxMid {
			t.Errorf("theta %g: %d midpoint probes, want <= %d", theta, mid, maxMid)
		}
		if res.Probes != len(*mags) {
			t.Errorf("theta %g: Probes %d != evaluations %d", theta, res.Probes, len(*mags))
		}
		// The bracket pins the boundary: margin passes, fail_at fails,
		// and theta lies inside [margin, fail_at] with width <= tol.
		if res.Margin > theta || res.FailAt <= theta {
			t.Errorf("theta %g: bracket [%g, %g] misses boundary", theta, res.Margin, res.FailAt)
		}
		if res.FailAt-res.Margin > tol {
			t.Errorf("theta %g: bracket width %g exceeds tol %g", theta, res.FailAt-res.Margin, tol)
		}
	}
}

// TestNonMonotoneConservativeMargin is the satellite regression test: a
// probe that recovers at high magnitude (pass below 0.3, fail in
// [0.3, 0.7), pass again at and above 0.7) must not report the
// recovered region as the margin. With refinement the search terminates
// with the conservative (lowest) margin just below 0.3.
func TestNonMonotoneConservativeMargin(t *testing.T) {
	island := func(m float64) bool { return m < 0.3 || m >= 0.7 }
	probe, _ := countProbe(island)
	res, err := Search{Lo: 0, Hi: 1, Tol: 0.01, Refine: 4}.FindMargin(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBounded {
		t.Fatalf("status %q, want bounded", res.Status)
	}
	if res.Margin >= 0.3 || res.Margin < 0.3-2*0.01 {
		t.Errorf("margin %g, want just below 0.3 (conservative edge of the failure island)", res.Margin)
	}
	if res.FailAt < 0.3 || res.FailAt >= 0.7 {
		t.Errorf("fail_at %g outside the failure island [0.3, 0.7)", res.FailAt)
	}

	// Without refinement the island is invisible (Hi passes) — the
	// documented saturated blind spot, pinned here so a behavior change
	// is loud.
	probe2, _ := countProbe(island)
	res2, err := Search{Lo: 0, Hi: 1, Tol: 0.01}.FindMargin(probe2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusSaturated || res2.Probes != 2 {
		t.Errorf("refine=0 got status %q after %d probes, want saturated after 2", res2.Status, res2.Probes)
	}
}

func TestSearchEdges(t *testing.T) {
	// Fails at Lo: unsafe after exactly one probe.
	probe, _ := countProbe(func(m float64) bool { return false })
	res, err := Search{Lo: 0, Hi: 1, Tol: 0.1}.FindMargin(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnsafe || res.Probes != 1 || res.Margin != 0 || res.FailAt != 0 {
		t.Errorf("all-fail: %+v, want unsafe after 1 probe", res)
	}

	// Passes everywhere: saturated, margin = Hi, even with refinement.
	probe2, _ := countProbe(func(m float64) bool { return true })
	res2, err := Search{Lo: 0, Hi: 1, Tol: 0.1, Refine: 3}.FindMargin(probe2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusSaturated || res2.Margin != 1 {
		t.Errorf("all-pass: %+v, want saturated at 1", res2)
	}

	// Invalid ranges are rejected.
	if _, err := (Search{Lo: 1, Hi: 1, Tol: 0.1}).FindMargin(probe2); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := (Search{Lo: 0, Hi: 1}).FindMargin(probe2); err == nil {
		t.Error("zero tolerance accepted")
	}

	// Probe errors propagate.
	boom := errors.New("boom")
	_, err = Search{Lo: 0, Hi: 1, Tol: 0.1}.FindMargin(func([]float64) ([]bool, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("probe error lost: %v", err)
	}
}
