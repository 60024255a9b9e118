package mat

import (
	"errors"
	"math"
)

// Fitter performs repeated polynomial least-squares fits without
// per-call allocations by reusing its factorization scratch across
// calls. The arithmetic replicates the reference Householder QR fit in
// qr_test.go operation for operation (Vandermonde build, Householder QR,
// reflection of the RHS, back substitution), so the coefficients are
// bit-identical to the reference's — a property TestFitterMatchesPolyFit
// pins. The zero value is ready to use. Not safe for concurrent use.
type Fitter struct {
	qr     []float64 // m×n Vandermonde, factored in place
	rhs    []float64 // right-hand side, reflected in place
	sol    []float64 // back-substitution output
	rdiag  []float64
	coeffs []float64
}

// PolyFit fits a polynomial of the given degree to (xs, ys) by least
// squares and returns coefficients c[0..degree] such that
// y = c[0] + c[1]*x + ... + c[degree]*x^degree. The returned slice
// aliases the Fitter's scratch and is valid only until the next call.
func (f *Fitter) PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("mat: PolyFit length mismatch")
	}
	if len(xs) < degree+1 {
		return nil, errors.New("mat: PolyFit needs at least degree+1 points")
	}
	m, n := len(xs), degree+1
	qr := growF(&f.qr, m*n)
	rhs := growF(&f.rhs, m)
	sol := growF(&f.sol, n)
	rdiag := growF(&f.rdiag, n)
	coeffs := growF(&f.coeffs, n)

	// Vandermonde system, row-major: qr[i*n+j] = xs[i]^j.
	for i, x := range xs {
		p := 1.0
		for j := 0; j < n; j++ {
			qr[i*n+j] = p
			p *= x
		}
		rhs[i] = ys[i]
	}

	// Householder QR factorization in place (FactorQR's loops on the
	// flat backing array).
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr[i*n+k])
		}
		if nrm == 0 {
			return nil, ErrSingular
		}
		if qr[k*n+k] < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr[i*n+k] = qr[i*n+k] / nrm
		}
		qr[k*n+k] = qr[k*n+k] + 1
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr[i*n+k] * qr[i*n+j]
			}
			s = -s / qr[k*n+k]
			for i := k; i < m; i++ {
				qr[i*n+j] = qr[i*n+j] + s*qr[i*n+k]
			}
		}
		rdiag[k] = -nrm
	}

	// Apply the reflections to the RHS, then back-substitute with R
	// (QR.Solve with a single column).
	for k := 0; k < n; k++ {
		var s float64
		for i := k; i < m; i++ {
			s += qr[i*n+k] * rhs[i]
		}
		s = -s / qr[k*n+k]
		for i := k; i < m; i++ {
			rhs[i] = rhs[i] + s*qr[i*n+k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := rhs[k]
		for i := k + 1; i < n; i++ {
			s -= qr[k*n+i] * sol[i]
		}
		sol[k] = s / rdiag[k]
	}
	copy(coeffs, sol)
	return coeffs, nil
}

// growF reslices *s to n elements, reallocating only when the capacity
// is insufficient.
func growF(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// PolyEval evaluates a polynomial with coefficients c (lowest order first).
func PolyEval(c []float64, x float64) float64 {
	v := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		v = v*x + c[i]
	}
	return v
}
