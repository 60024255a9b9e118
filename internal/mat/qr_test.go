package mat

// The Householder QR least-squares below is the reference the allocation-
// free Fitter (fit.go) must match bit for bit (TestFitterMatchesPolyFit);
// production code calls only the Fitter.

import (
	"errors"
	"math"
)

// QR holds a Householder QR factorization A = Q*R of an m×n matrix with
// m >= n, stored compactly: the Householder vectors below the diagonal of
// qr and R on/above the diagonal (with rdiag holding the diagonal of R).
type QR struct {
	qr    *Mat
	rdiag []float64
}

// FactorQR computes the Householder QR factorization of a (m >= n).
func FactorQR(a *Mat) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("mat: FactorQR requires rows >= cols")
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			return nil, ErrSingular
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// Solve returns the least-squares solution X minimizing ||A*X - B||_2.
func (f *QR) Solve(b *Mat) *Mat {
	m, n := f.qr.Rows, f.qr.Cols
	if b.Rows != m {
		panic("mat: QR.Solve dimension mismatch")
	}
	x := b.Clone()
	// Apply Householder reflections to B.
	for k := 0; k < n; k++ {
		for j := 0; j < x.Cols; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += f.qr.At(i, k) * x.At(i, j)
			}
			s = -s / f.qr.At(k, k)
			for i := k; i < m; i++ {
				x.Set(i, j, x.At(i, j)+s*f.qr.At(i, k))
			}
		}
	}
	// Back-substitute with R.
	out := New(n, x.Cols)
	for k := n - 1; k >= 0; k-- {
		for j := 0; j < x.Cols; j++ {
			s := x.At(k, j)
			for i := k + 1; i < n; i++ {
				s -= f.qr.At(k, i) * out.At(i, j)
			}
			out.Set(k, j, s/f.rdiag[k])
		}
	}
	return out
}

// LeastSquares solves min ||A*x - b||_2 via Householder QR.
func LeastSquares(a, b *Mat) (*Mat, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// PolyFit fits a polynomial of the given degree to the points (xs, ys) by
// least squares and returns coefficients c[0..degree] such that
// y = c[0] + c[1]*x + ... + c[degree]*x^degree.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("mat: PolyFit length mismatch")
	}
	if len(xs) < degree+1 {
		return nil, errors.New("mat: PolyFit needs at least degree+1 points")
	}
	a := New(len(xs), degree+1)
	b := New(len(xs), 1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= degree; j++ {
			a.Set(i, j, p)
			p *= x
		}
		b.Set(i, 0, ys[i])
	}
	sol, err := LeastSquares(a, b)
	if err != nil {
		return nil, err
	}
	coeffs := make([]float64, degree+1)
	for j := range coeffs {
		coeffs[j] = sol.At(j, 0)
	}
	return coeffs, nil
}
