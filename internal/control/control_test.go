package control

import (
	"math"
	"slices"
	"testing"

	"hsas/internal/mat"
	"hsas/internal/vehicle"
)

const lookAhead = 5.5

func design(t *testing.T, v, h, tau float64) *Design {
	t.Helper()
	d, err := NewDesign(vehicle.BMWX5(), v, h, tau, lookAhead)
	if err != nil {
		t.Fatalf("NewDesign(%v, %v, %v): %v", v, h, tau, err)
	}
	return d
}

// diag returns a square matrix with v on the diagonal.
func diag(v ...float64) *mat.Mat {
	m := mat.New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}

// stable reports whether the design's closed loop is Schur stable.
func stable(d *Design) bool {
	return mat.SpectralRadius(d.ClosedLoop()) < 1
}

func TestDesignValidation(t *testing.T) {
	p := vehicle.BMWX5()
	if _, err := NewDesign(p, 50, 0.025, 0, lookAhead); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, err := NewDesign(p, 50, 0.025, 0.030, lookAhead); err == nil {
		t.Fatal("tau>h accepted")
	}
	if _, err := NewDesign(p, 50, -1, 0.01, lookAhead); err == nil {
		t.Fatal("negative h accepted")
	}
}

func TestDesignStableAcrossPaperTimings(t *testing.T) {
	// All (v, h, tau) triples appearing in Tables III and V.
	cases := [][3]float64{
		{50, 0.025, 0.0231}, {50, 0.025, 0.0224}, {50, 0.025, 0.0246},
		{30, 0.025, 0.0231}, {30, 0.045, 0.0407},
		{50, 0.035, 0.0301}, {50, 0.040, 0.0356},
		{30, 0.015, 0.0119},
	}
	for _, c := range cases {
		d := design(t, c[0], c[1], c[2])
		if !stable(d) {
			t.Fatalf("design (%v, %v, %v) unstable, rho=%v",
				c[0], c[1], c[2], mat.SpectralRadius(d.ClosedLoop()))
		}
	}
}

func TestFullPeriodDelay(t *testing.T) {
	d := design(t, 50, 0.025, 0.025)
	if !stable(d) {
		t.Fatal("tau=h design unstable")
	}
	// Gamma0 block (direct feedthrough of u[k]) must be zero.
	n := vehicle.NumStates
	for i := 0; i < n; i++ {
		if d.Gamma.At(i, 0) != 0 {
			t.Fatalf("tau=h should have zero Gamma0, got %v at %d", d.Gamma.At(i, 0), i)
		}
	}
}

// simulateLinear runs the augmented linear model in closed loop with the
// controller's observer in the loop and returns the MAE of yL.
func simulateLinear(d *Design, y0 float64, steps int, curvature float64) float64 {
	ctl := NewController(d)
	n := d.Phi.Rows
	z := mat.New(n, 1)
	z.Set(2, 0, y0)

	var mae float64
	for k := 0; k < steps; k++ {
		y := mat.Mul(d.C, z).At(0, 0)
		mae += math.Abs(y)
		u := ctl.Step(y, curvature)
		z = mat.Add(mat.Mul(d.Phi, z), mat.Scale(u, d.Gamma))
		// Inject curvature disturbance on epsL (continuous-time vx*kappa*h).
		z.Set(3, 0, z.At(3, 0)+vehicle.Kmph(d.SpeedKmph)*curvature*d.H)
	}
	return mae / float64(steps)
}

func TestClosedLoopRegulatesStep(t *testing.T) {
	d := design(t, 50, 0.025, 0.0231)
	mae := simulateLinear(d, 0.5, 400, 0)
	if mae > 0.08 {
		t.Fatalf("closed loop regulates poorly: MAE %v", mae)
	}
	// The terminal deviation must be near zero.
	ctl := NewController(d)
	z := mat.New(d.Phi.Rows, 1)
	z.Set(2, 0, 0.5)
	for k := 0; k < 400; k++ {
		u := ctl.Step(mat.Mul(d.C, z).At(0, 0), 0)
		z = mat.Add(mat.Mul(d.Phi, z), mat.Scale(u, d.Gamma))
	}
	if math.Abs(z.At(2, 0)) > 1e-3 {
		t.Fatalf("terminal yL = %v", z.At(2, 0))
	}
}

func TestLargerDelayDegradesQoC(t *testing.T) {
	// The paper's central QoC mechanism: larger (h, tau) -> worse MAE.
	fast := design(t, 50, 0.025, 0.0231) // case-4-like timing
	slow := design(t, 50, 0.040, 0.0356) // case-3-like timing
	maeFast := simulateLinear(fast, 0.5, 800, 0)
	maeSlow := simulateLinear(slow, 0.5, 500, 0) // same wall-clock horizon
	if maeFast >= maeSlow {
		t.Fatalf("faster sampling did not improve QoC: fast %v slow %v", maeFast, maeSlow)
	}
}

func TestCurvatureFeedforwardReducesBias(t *testing.T) {
	d := design(t, 30, 0.025, 0.0231)
	kappa := 1.0 / 40
	withFF := simulateLinear(d, 0, 600, kappa)

	noFF := *d
	noFF.Kff = 0
	maeNoFF := simulateLinear(&noFF, 0, 600, kappa)
	if withFF >= maeNoFF {
		t.Fatalf("feedforward did not help on curves: with %v without %v", withFF, maeNoFF)
	}
}

func TestControllerResetAndCopy(t *testing.T) {
	d := design(t, 50, 0.025, 0.0231)
	a := NewController(d)
	a.Step(0.3, 0)
	b := NewController(d)
	b.CopyStateFrom(a)
	if b.uPrev != a.uPrev || !slices.Equal(b.zHat.Data, a.zHat.Data) {
		t.Fatal("CopyStateFrom did not transfer the observer state")
	}
	// Copying a fresh controller's state resets it.
	a.CopyStateFrom(NewController(d))
	if a.uPrev != 0 || a.zHat.MaxAbs() != 0 {
		t.Fatal("copying a fresh controller did not clear the state")
	}
	b.CopyStateFrom(nil) // must not panic
}

func TestFindCQLFSingleStable(t *testing.T) {
	a := diag(0.5, 0.8)
	p, err := FindCQLF([]*mat.Mat{a})
	if err != nil {
		t.Fatalf("CQLF for a single stable mode: %v", err)
	}
	if !mat.IsPositiveDefinite(p) {
		t.Fatal("certificate not PD")
	}
}

func TestFindCQLFCommutingPair(t *testing.T) {
	// Commuting stable matrices always share a CQLF.
	a1 := diag(0.9, 0.3)
	a2 := diag(0.2, 0.85)
	p, err := FindCQLF([]*mat.Mat{a1, a2})
	if err != nil {
		t.Fatalf("CQLF for commuting pair: %v", err)
	}
	for _, m := range []*mat.Mat{a1, a2} {
		diff := mat.Sub(mat.Mul3(m.T(), p, m), p)
		if v, _ := mat.MaxEigSym(diff); v >= 0 {
			t.Fatalf("certificate violated: %v", v)
		}
	}
}

func TestFindCQLFRejectsUnstableMode(t *testing.T) {
	a1 := diag(0.5, 0.5)
	a2 := diag(1.2, 0.5)
	if _, err := FindCQLF([]*mat.Mat{a1, a2}); err == nil {
		t.Fatal("unstable mode accepted")
	}
}

func TestPaperControllerBankSharesCQLF(t *testing.T) {
	// The switched closed loops of the situation-specific designs (both
	// speeds, all paper timing pairs) must admit a common Lyapunov
	// function — the paper's stability argument for runtime switching.
	timings := [][3]float64{
		{50, 0.025, 0.0231},
		{50, 0.025, 0.0224},
		{30, 0.025, 0.0231},
		{30, 0.045, 0.0407},
	}
	var mats []*mat.Mat
	for _, c := range timings {
		mats = append(mats, design(t, c[0], c[1], c[2]).ClosedLoop())
	}
	if _, err := FindCQLF(mats); err != nil {
		t.Fatalf("no CQLF across the paper controller bank: %v", err)
	}
}

func TestFeedforwardGainPositive(t *testing.T) {
	d := design(t, 50, 0.025, 0.02)
	if d.Kff <= 0 {
		t.Fatalf("feedforward gain = %v", d.Kff)
	}
}

func TestEigSymKnown(t *testing.T) {
	m := mat.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := mat.EigSym(m)
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [1 3]", vals)
	}
	// Columns orthonormal.
	g := mat.Mul(vecs.T(), vecs)
	if mat.Sub(g, mat.Identity(2)).MaxAbs() > 1e-10 {
		t.Fatalf("eigenvectors not orthonormal:\n%v", g)
	}
}
