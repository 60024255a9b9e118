package control

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/mat"
	"hsas/internal/vehicle"
)

func TestNewLQGDesignValidation(t *testing.T) {
	p := vehicle.BMWX5()
	if _, err := NewLQGDesign(p, 50, 0.025, 0.02, lookAhead, NoiseModel{}); err == nil {
		t.Fatal("zero noise variances accepted")
	}
	d, err := NewLQGDesign(p, 50, 0.025, 0.02, lookAhead, NoiseModel{MeasurementVar: 0.15 * 0.15, ProcessVar: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !stable(d) {
		t.Fatal("LQG closed loop unstable")
	}
}

// simulateNoisy runs the linear closed loop with Gaussian measurement
// noise and returns the MAE of the true yL.
func simulateNoisy(d *Design, y0, sigma float64, seed int64, steps int) float64 {
	rng := rand.New(rand.NewSource(seed))
	ctl := NewController(d)
	n := d.Phi.Rows
	z := mat.New(n, 1)
	z.Set(2, 0, y0)
	var mae float64
	for k := 0; k < steps; k++ {
		y := mat.Mul(d.C, z).At(0, 0)
		mae += math.Abs(y)
		u := ctl.Step(y+sigma*rng.NormFloat64(), 0)
		z = mat.Add(mat.Mul(d.Phi, z), mat.Scale(u, d.Gamma))
	}
	return mae / float64(steps)
}

// TestLQGBeatsGenericObserverUnderNoise: with heavy measurement noise,
// the Kalman-tuned observer must regulate better than the generic one —
// the benefit the paper's future-work note anticipates.
func TestLQGBeatsGenericObserverUnderNoise(t *testing.T) {
	p := vehicle.BMWX5()
	sigma := 0.35
	noise := NoiseModel{MeasurementVar: sigma * sigma, ProcessVar: 1e-4}

	generic, err := NewDesign(p, 30, 0.025, 0.025, lookAhead)
	if err != nil {
		t.Fatal(err)
	}
	lqg, err := NewLQGDesign(p, 30, 0.025, 0.025, lookAhead, noise)
	if err != nil {
		t.Fatal(err)
	}

	var maeGeneric, maeLQG float64
	for seed := int64(0); seed < 5; seed++ {
		// Start at the regulated equilibrium: the MAE then measures pure
		// noise rejection rather than the step transient.
		maeGeneric += simulateNoisy(generic, 0, sigma, seed, 600)
		maeLQG += simulateNoisy(lqg, 0, sigma, seed, 600)
	}
	if maeLQG >= maeGeneric {
		t.Fatalf("LQG (%.4f) not better than generic observer (%.4f) under sigma=%.2f noise",
			maeLQG/5, maeGeneric/5, sigma)
	}
}

// TestLQGTracksCleanMeasurementsFast: with tiny measurement noise the
// Kalman filter must still regulate a step well (no over-filtering).
func TestLQGTracksCleanMeasurementsFast(t *testing.T) {
	p := vehicle.BMWX5()
	lqg, err := NewLQGDesign(p, 50, 0.025, 0.025, lookAhead, NoiseModel{MeasurementVar: 1e-4, ProcessVar: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if mae := simulateNoisy(lqg, 0.4, 0.0, 1, 500); mae > 0.08 {
		t.Fatalf("clean-measurement LQG MAE = %v", mae)
	}
}
