package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Mul(Identity(2), a); !equalish(got, a, 0) {
		t.Fatalf("I*A != A:\n%v", got)
	}
	if got := Mul(a, Identity(2)); !equalish(got, a, 0) {
		t.Fatalf("A*I != A:\n%v", got)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !equalish(got, want, 1e-12) {
		t.Fatalf("Mul =\n%v want\n%v", got, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals [6]float64) bool {
		m := New(2, 3)
		copy(m.Data, vals[:])
		return equalish(m.T().T(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a6, b6 [6]float64) bool {
		a := New(2, 3)
		b := New(2, 3)
		copy(a.Data, a6[:])
		copy(b.Data, b6[:])
		for i := range a.Data {
			if math.IsNaN(a.Data[i]) || math.IsInf(a.Data[i], 0) ||
				math.IsNaN(b.Data[i]) || math.IsInf(b.Data[i], 0) {
				return true
			}
			// Keep magnitudes bounded so round-trip tolerance is meaningful.
			a.Data[i] = math.Mod(a.Data[i], 1e6)
			b.Data[i] = math.Mod(b.Data[i], 1e6)
		}
		got := Sub(Add(a, b), b)
		return equalish(got, a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSetSub(t *testing.T) {
	m := New(3, 3)
	m.SetSub(1, 1, FromRows([][]float64{{7, 8}, {9, 10}}))
	s := m.Slice(1, 3, 1, 3)
	want := FromRows([][]float64{{7, 8}, {9, 10}})
	if !equalish(s, want, 0) {
		t.Fatalf("Slice/SetSub mismatch:\n%v", s)
	}
}

func TestSolveRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance ensures non-singularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		xTrue := New(n, 1)
		for i := range xTrue.Data {
			xTrue.Data[i] = rng.NormFloat64()
		}
		b := Mul(a, xTrue)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if !equalish(x, xTrue, 1e-8) {
			t.Fatalf("trial %d: solve mismatch:\n%v vs\n%v", trial, x, xTrue)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Identity(2)); err == nil {
		t.Fatal("Solve of singular matrix did not error")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system: recover the exact solution.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	xTrue := ColVec(2, -3)
	b := Mul(a, xTrue)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !equalish(x, xTrue, 1e-10) {
		t.Fatalf("LeastSquares = %v, want %v", x, xTrue)
	}
}

func TestPolyFitRecoversPolynomial(t *testing.T) {
	coeffs := []float64{1.5, -2.0, 0.25}
	var xs, ys []float64
	for x := -5.0; x <= 5; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, PolyEval(coeffs, x))
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if math.Abs(got[i]-coeffs[i]) > 1e-9 {
			t.Fatalf("PolyFit coeff %d = %v, want %v", i, got[i], coeffs[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("underdetermined fit not detected")
	}
}

func TestExpmZeroIsIdentity(t *testing.T) {
	if got := Expm(New(3, 3)); !equalish(got, Identity(3), 1e-14) {
		t.Fatalf("Expm(0) =\n%v", got)
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := diag(1, -2, 0.5)
	got := Expm(a)
	want := diag(math.E, math.Exp(-2), math.Exp(0.5))
	if !equalish(got, want, 1e-10) {
		t.Fatalf("Expm(diag) =\n%v want\n%v", got, want)
	}
}

func TestExpmRotation(t *testing.T) {
	// exp([[0, -θ], [θ, 0]]) is a rotation by θ.
	theta := 0.73
	a := FromRows([][]float64{{0, -theta}, {theta, 0}})
	got := Expm(a)
	want := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	if !equalish(got, want, 1e-10) {
		t.Fatalf("Expm(rotation) =\n%v want\n%v", got, want)
	}
}

func TestExpmAdditiveProperty(t *testing.T) {
	// e^(A) e^(A) = e^(2A) for any A.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := New(3, 3)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		lhs := Mul(Expm(a), Expm(a))
		rhs := Expm(Scale(2, a))
		if !equalish(lhs, rhs, 1e-8*(1+rhs.MaxAbs())) {
			t.Fatalf("trial %d: e^A e^A != e^2A", trial)
		}
	}
}

func TestIntegralExpmScalar(t *testing.T) {
	// For scalar a, gamma = (e^(a h) - 1)/a * b.
	a := FromRows([][]float64{{-1.3}})
	b := FromRows([][]float64{{2.0}})
	h := 0.05
	phi, gamma := IntegralExpm(a, b, h)
	wantPhi := math.Exp(-1.3 * h)
	wantGamma := (math.Exp(-1.3*h) - 1) / -1.3 * 2.0
	if math.Abs(phi.At(0, 0)-wantPhi) > 1e-12 {
		t.Fatalf("phi = %v, want %v", phi.At(0, 0), wantPhi)
	}
	if math.Abs(gamma.At(0, 0)-wantGamma) > 1e-12 {
		t.Fatalf("gamma = %v, want %v", gamma.At(0, 0), wantGamma)
	}
}

func TestIntegralExpmIntegratorChain(t *testing.T) {
	// Double integrator: A = [[0,1],[0,0]], B = [0,1]'.
	// Phi = [[1,h],[0,1]], Gamma = [h^2/2, h]'.
	a := FromRows([][]float64{{0, 1}, {0, 0}})
	b := ColVec(0, 1)
	h := 0.1
	phi, gamma := IntegralExpm(a, b, h)
	wantPhi := FromRows([][]float64{{1, h}, {0, 1}})
	wantGamma := ColVec(h*h/2, h)
	if !equalish(phi, wantPhi, 1e-12) {
		t.Fatalf("phi =\n%v", phi)
	}
	if !equalish(gamma, wantGamma, 1e-12) {
		t.Fatalf("gamma =\n%v", gamma)
	}
}

func TestDlyapKnown(t *testing.T) {
	// Scalar: a=0.5, q=1 -> p = q/(1-a^2) = 4/3.
	p, err := Dlyap(FromRows([][]float64{{0.5}}), FromRows([][]float64{{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.At(0, 0)-4.0/3.0) > 1e-10 {
		t.Fatalf("Dlyap scalar = %v, want 4/3", p.At(0, 0))
	}
}

func TestDlyapResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = 0.4 * rng.NormFloat64() / float64(n)
		}
		q := Identity(n)
		p, err := Dlyap(a, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := Add(Sub(Mul3(a.T(), p, a), p), q)
		if res.MaxAbs() > 1e-9*(1+p.MaxAbs()) {
			t.Fatalf("trial %d: residual %v", trial, res.MaxAbs())
		}
		if !IsPositiveDefinite(p) {
			t.Fatalf("trial %d: P not positive definite", trial)
		}
	}
}

func TestDlyapUnstableErrors(t *testing.T) {
	a := FromRows([][]float64{{1.5}})
	if _, err := Dlyap(a, Identity(1)); err == nil {
		t.Fatal("Dlyap accepted unstable A")
	}
}

func TestDareScalarKnown(t *testing.T) {
	// Scalar DARE: p = a^2 p - a^2 p^2 b^2/(r + b^2 p) + q.
	// With a=1, b=1, q=1, r=1: p^2 - p - 1 = 0 -> p = golden ratio + ... solve:
	// p = a^2 r (p) ... closed form: p = (1 + sqrt(5))/2 * ... Let's verify residual instead.
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1}})
	q := FromRows([][]float64{{1}})
	r := FromRows([][]float64{{1}})
	p, err := Dare(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	pv := p.At(0, 0)
	res := pv - (pv - pv*pv/(1+pv) + 1)
	if math.Abs(res) > 1e-9 {
		t.Fatalf("DARE residual %v (p=%v)", res, pv)
	}
	// Known: p = (1+sqrt(5))/2 ≈ 1.618
	if math.Abs(pv-(1+math.Sqrt(5))/2) > 1e-6 {
		t.Fatalf("DARE p = %v, want golden ratio", pv)
	}
}

func TestLQRStabilizes(t *testing.T) {
	// Unstable double integrator in discrete time; LQR must stabilize it.
	h := 0.1
	a := FromRows([][]float64{{1, h}, {0, 1}})
	b := ColVec(h*h/2, h)
	k, err := LQRGain(a, b, Identity(2), FromRows([][]float64{{0.1}}))
	if err != nil {
		t.Fatal(err)
	}
	acl := Sub(a, Mul(b, k))
	if rho := SpectralRadius(acl); rho >= 1 {
		t.Fatalf("closed loop unstable: rho = %v", rho)
	}
}

func TestSpectralRadiusKnown(t *testing.T) {
	cases := []struct {
		m    *Mat
		want float64
	}{
		{diag(0.5, 0.2), 0.5},
		{diag(2, -3), 3},
		{FromRows([][]float64{{0, 1}, {-1, 0}}), 1}, // eigenvalues ±i
	}
	for i, c := range cases {
		if got := SpectralRadius(c.m); math.Abs(got-c.want) > 0.02*c.want+1e-9 {
			t.Fatalf("case %d: rho = %v, want %v", i, got, c.want)
		}
	}
}

func TestIsPositiveDefinite(t *testing.T) {
	if !IsPositiveDefinite(diag(1, 2, 3)) {
		t.Fatal("diag(1,2,3) should be PD")
	}
	if IsPositiveDefinite(diag(1, -1)) {
		t.Fatal("diag(1,-1) should not be PD")
	}
	if IsPositiveDefinite(FromRows([][]float64{{1, 2}, {2, 1}})) {
		t.Fatal("indefinite matrix should not be PD")
	}
}

func TestPolyEvalHorner(t *testing.T) {
	// 3 + 2x + x^2 at x=2 -> 3+4+4 = 11
	if got := PolyEval([]float64{3, 2, 1}, 2); got != 11 {
		t.Fatalf("PolyEval = %v, want 11", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Fatalf("PolyEval(nil) = %v, want 0", got)
	}
}

// diag returns a square matrix with v on the diagonal.
func diag(v ...float64) *Mat {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}

// equalish reports whether a and b agree element-wise within tol.
func equalish(a, b *Mat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
