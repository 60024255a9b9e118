// Package mat provides the dense linear-algebra substrate used by the
// control design (discretization, Riccati and Lyapunov equations), the
// perception stage (polynomial least squares) and the CNN framework.
//
// Matrices are small (controller design uses 4–6 states), so the
// package favors clarity and numerical robustness over cache
// blocking: LU with partial pivoting, Householder QR, and Padé
// scaling-and-squaring for the matrix exponential.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense, row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows needs at least one row and one column")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with v on the diagonal.
func Diag(v ...float64) *Mat {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}

// ColVec returns a column vector (n×1) holding v.
func ColVec(v ...float64) *Mat {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns a+b.
func Add(a, b *Mat) *Mat {
	checkSameDims("Add", a, b)
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a-b.
func Sub(a, b *Mat) *Mat {
	checkSameDims("Sub", a, b)
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s*a.
func Scale(s float64, a *Mat) *Mat {
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = s * a.Data[i]
	}
	return c
}

// Mul returns the matrix product a*b.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowC := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j, bv := range rowB {
				rowC[j] += aik * bv
			}
		}
	}
	return c
}

// Mul3 returns a*b*c, associating to minimize work for tall/thin chains.
func Mul3(a, b, c *Mat) *Mat { return Mul(Mul(a, b), c) }

// MaxAbs returns the largest absolute entry of m.
func (m *Mat) MaxAbs() float64 {
	var v float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}

// Norm1 returns the maximum absolute column sum (induced 1-norm).
func (m *Mat) Norm1() float64 {
	var best float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += math.Abs(m.At(i, j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// FrobNorm returns the Frobenius norm of m.
func (m *Mat) FrobNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// Equalish reports whether a and b agree element-wise within tol.
func Equalish(a, b *Mat, tol float64) bool {
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

// String renders m for debugging and test failure messages.
func (m *Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%10.5g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// HStack concatenates matrices left-to-right. All must share Rows.
func HStack(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("mat: HStack of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic("mat: HStack row mismatch")
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		for _, m := range ms {
			copy(out.Data[i*cols+off:i*cols+off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
			off += m.Cols
		}
	}
	return out
}

// VStack concatenates matrices top-to-bottom. All must share Cols.
func VStack(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("mat: VStack of nothing")
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("mat: VStack col mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// Slice returns the sub-matrix rows [r0, r1) × cols [c0, c1) as a copy.
func (m *Mat) Slice(r0, r1, c0, c1 int) *Mat {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("mat: bad slice [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SetSub copies src into m with its top-left corner at (r0, c0).
func (m *Mat) SetSub(r0, c0 int, src *Mat) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic("mat: SetSub out of bounds")
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

func checkSameDims(op string, a, b *Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
