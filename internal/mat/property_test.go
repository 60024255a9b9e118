package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestEigSymReconstruction: V Λ V' must reconstruct the symmetric input.
func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := EigSym(a)
		recon := New(n, n)
		for k := 0; k < n; k++ {
			col := vecs.Slice(0, n, k, k+1)
			recon = Add(recon, Scale(vals[k], Mul(col, col.T())))
		}
		if !equalish(recon, a, 1e-9) {
			t.Fatalf("trial %d: eigendecomposition does not reconstruct:\n%v\nvs\n%v", trial, recon, a)
		}
		// Eigenvalues ascending.
		for k := 1; k < n; k++ {
			if vals[k] < vals[k-1] {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, vals)
			}
		}
	}
}

// TestMaxEigSymConsistency: the max eigenpair satisfies A v = λ v.
func TestMaxEigSymConsistency(t *testing.T) {
	a := FromRows([][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}})
	val, vec := MaxEigSym(a)
	av := Mul(a, vec)
	lv := Scale(val, vec)
	if !equalish(av, lv, 1e-9) {
		t.Fatalf("A v != lambda v:\n%v vs\n%v", av, lv)
	}
	// Unit norm.
	if math.Abs(vec.FrobNorm()-1) > 1e-9 {
		t.Fatalf("eigenvector norm %v", vec.FrobNorm())
	}
}

// TestExpmInverseProperty: e^A e^(-A) = I.
func TestExpmInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(3)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		prod := Mul(Expm(a), Expm(Scale(-1, a)))
		if !equalish(prod, Identity(n), 1e-7) {
			t.Fatalf("trial %d: e^A e^-A != I:\n%v", trial, prod)
		}
	}
}

// TestDareMonotoneInQ: a larger state cost cannot shrink the value
// function (P is monotone in Q).
func TestDareMonotoneInQ(t *testing.T) {
	a := FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := ColVec(0.005, 0.1)
	r := FromRows([][]float64{{1}})
	p1, err := Dare(a, b, Identity(2), r)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Dare(a, b, Scale(4, Identity(2)), r)
	if err != nil {
		t.Fatal(err)
	}
	diff := Sub(p2, p1)
	if !IsPositiveDefinite(diff) {
		t.Fatalf("P(4Q) - P(Q) not PD:\n%v", diff)
	}
}

// TestLUSolveMultiRHS: solving against a multi-column B equals solving
// column by column.
func TestLUSolveMultiRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := New(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+5)
	}
	b := New(4, 3)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		col, err := Solve(a, b.Slice(0, 4, c, c+1))
		if err != nil {
			t.Fatal(err)
		}
		if !equalish(col, x.Slice(0, 4, c, c+1), 1e-10) {
			t.Fatalf("column %d differs", c)
		}
	}
}

// TestQRTallLeastSquaresResidualOrthogonal: the least-squares residual is
// orthogonal to the column space.
func TestQRTallLeastSquaresResidualOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := New(12, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := New(12, 1)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := Sub(b, Mul(a, x))
	ortho := Mul(a.T(), res)
	if ortho.MaxAbs() > 1e-9 {
		t.Fatalf("residual not orthogonal to range(A): %v", ortho.MaxAbs())
	}
}
