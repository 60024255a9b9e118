package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Mat  // packed L (unit diagonal, below) and U (on/above diagonal)
	piv []int // row permutation
}

// Factor computes the LU factorization of the square matrix a.
func Factor(a *Mat) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("mat: Factor requires a square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below row k.
		p := k
		maxV := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxV {
				maxV, p = v, i
			}
		}
		if maxV < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rowK := lu.Data[k*n : (k+1)*n]
			rowP := lu.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A*X = B for X, where B may have multiple columns.
func (f *LU) Solve(b *Mat) *Mat {
	n := f.lu.Rows
	if b.Rows != n {
		panic("mat: LU.Solve dimension mismatch")
	}
	x := New(n, b.Cols)
	// Apply permutation.
	for i := 0; i < n; i++ {
		copy(x.Data[i*x.Cols:(i+1)*x.Cols], b.Data[f.piv[i]*b.Cols:(f.piv[i]+1)*b.Cols])
	}
	// Forward substitution with unit-lower L.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			l := f.lu.At(i, k)
			if l == 0 {
				continue
			}
			for j := 0; j < x.Cols; j++ {
				x.Set(i, j, x.At(i, j)-l*x.At(k, j))
			}
		}
	}
	// Back substitution with U.
	for k := n - 1; k >= 0; k-- {
		d := f.lu.At(k, k)
		for j := 0; j < x.Cols; j++ {
			x.Set(k, j, x.At(k, j)/d)
		}
		for i := 0; i < k; i++ {
			u := f.lu.At(i, k)
			if u == 0 {
				continue
			}
			for j := 0; j < x.Cols; j++ {
				x.Set(i, j, x.At(i, j)-u*x.At(k, j))
			}
		}
	}
	return x
}

// Solve solves A*X = B via LU with partial pivoting.
func Solve(a, b *Mat) (*Mat, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
