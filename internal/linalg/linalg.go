// Package linalg provides the small dense linear algebra kernel needed by
// the bit-width regression of Section 5: matrices, Householder QR
// factorization, and least-squares solving. It is deliberately minimal —
// design matrices here have a handful of rows (prototype widths) and at
// most three columns (complexity terms).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: row %d has %d entries, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m · x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dim mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * x[j]
		}
		out[i] = s
	}
	return out
}

// LeastSquares solves min_x ||A·x − b||₂ via Householder QR. It requires
// Rows >= Cols and returns an error if A is (numerically) rank deficient.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: rhs has %d entries, want %d", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	r := a.Clone()
	y := append([]float64(nil), b...)

	// Householder QR: transform R in place, apply reflections to y.
	for k := 0; k < r.Cols; k++ {
		// Norm of the k-th column below the diagonal.
		var norm float64
		for i := k; i < r.Rows; i++ {
			norm += r.At(i, k) * r.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, fmt.Errorf("linalg: rank deficient at column %d", k)
		}
		alpha := -norm
		if r.At(k, k) < 0 {
			alpha = norm
		}
		// v = x − alpha·e_k (stored in column k scratch copy)
		v := make([]float64, r.Rows-k)
		v[0] = r.At(k, k) - alpha
		for i := k + 1; i < r.Rows; i++ {
			v[i-k] = r.At(i, k)
		}
		var vv float64
		for _, t := range v {
			vv += t * t
		}
		if vv == 0 {
			continue // column already in triangular form
		}
		// Apply H = I − 2vvᵀ/vᵀv to the remaining columns of R and to y.
		for j := k; j < r.Cols; j++ {
			var dot float64
			for i := k; i < r.Rows; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			f := 2 * dot / vv
			for i := k; i < r.Rows; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i-k])
			}
		}
		var dot float64
		for i := k; i < r.Rows; i++ {
			dot += v[i-k] * y[i]
		}
		f := 2 * dot / vv
		for i := k; i < r.Rows; i++ {
			y[i] -= f * v[i-k]
		}
	}
	// Back substitution on the upper triangle.
	x := make([]float64, r.Cols)
	for i := r.Cols - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < r.Cols; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-12 {
			return nil, fmt.Errorf("linalg: singular triangular factor at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}
