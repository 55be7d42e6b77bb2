// Package linalg provides the dense real linear-algebra kernels required by
// the spectral-expansion solver: LU factorisation, linear solves,
// determinants, matrix inversion, rank-deficient null-space extraction, and
// a Francis double-shift QR solver for a real matrix's eigenvalues, which
// can be complex.
//
// Conventions: matrices are dense, row-major. Dimension mismatches are
// programmer errors and panic (as in gonum); numerical failures such as
// singularity or non-convergence are reported as errors.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries; element (i,j) is Data[i*Cols+j].
	Data []float64
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the main diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := NewMatrix(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Plus returns m + b.
func (m *Matrix) Plus(b *Matrix) *Matrix {
	m.sameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// Minus returns m − b.
func (m *Matrix) Minus(b *Matrix) *Matrix {
	m.sameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	return out
}

// Scaled returns m scaled by s.
func (m *Matrix) Scaled(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Times returns the matrix product m·b, accumulating each output row as
// one Axpy per nonzero entry of m's row (zero entries are skipped).
func (m *Matrix) Times(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: product shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mik := range mrow {
			if mik != 0 {
				Axpy(mik, b.Data[k*b.Cols:(k+1)*b.Cols], orow)
			}
		}
	}
	return out
}

// VecTimes returns the row-vector product v·m, one Axpy of m's row i per
// nonzero v[i].
func (m *Matrix) VecTimes(v []float64) []float64 {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("linalg: vec·mat shape mismatch len %d vs %d rows", len(v), m.Rows))
	}
	out := make([]float64, m.Cols)
	for i, vi := range v {
		if vi != 0 {
			Axpy(vi, m.Data[i*m.Cols:(i+1)*m.Cols], out)
		}
	}
	return out
}

// TimesVec returns the column-vector product m·v.
func (m *Matrix) TimesVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: mat·vec shape mismatch %d cols vs len %d", m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, mij := range row {
			s += mij * v[j]
		}
		out[i] = s
	}
	return out
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for _, v := range row {
			s += v
		}
		out[i] = s
	}
	return out
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equalish reports whether m and b agree entrywise within tol.
func (m *Matrix) Equalish(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
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

func (m *Matrix) sameShape(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

func (m *Matrix) square() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: matrix must be square, got %d×%d", m.Rows, m.Cols))
	}
}
